let to_dot ?(name = "g") ?vertex_label ?show_lengths g =
  let label = match vertex_label with Some f -> f | None -> string_of_int in
  let show_lengths =
    match show_lengths with Some b -> b | None -> not (Digraph.all_unit_lengths g)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to Digraph.n g - 1 do
    Buffer.add_string buf (Printf.sprintf "  %d [label=%S];\n" v (label v))
  done;
  Digraph.iter_edges g (fun u v len ->
      if show_lengths then
        Buffer.add_string buf (Printf.sprintf "  %d -> %d [label=\"%d\"];\n" u v len)
      else Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
