(* Linebuf, the line buffer under every serving loop: line reassembly
   across reads, the overlong-line bound, and the output bound against
   a peer that never reads (a socketpair whose far end is left alone). *)

module Linebuf = Bbc_server.Linebuf

let with_pair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Fun.protect
    (fun () -> f a b)
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let read_lines io =
  let got = ref [] in
  let status = Linebuf.read io (fun l -> got := l :: !got) in
  (status, List.rev !got)

let status =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with `More -> "`More" | `Eof -> "`Eof" | `Overlong -> "`Overlong"))
    ( = )

let test_reassembly () =
  with_pair (fun a b ->
      let io = Linebuf.create a in
      send b "ab";
      let st, lines = read_lines io in
      Alcotest.(check status) "partial" `More st;
      Alcotest.(check (list string)) "no line yet" [] lines;
      send b "c\nd\n\ne";
      let st, lines = read_lines io in
      Alcotest.(check status) "more" `More st;
      Alcotest.(check (list string)) "lines" [ "abc"; "d"; "" ] lines;
      Unix.close b;
      let st, lines = read_lines io in
      Alcotest.(check status) "peer closed" `Eof st;
      Alcotest.(check (list string)) "unterminated tail dropped" [] lines;
      Alcotest.(check bool) "eof" true (Linebuf.eof io))

let test_overlong () =
  with_pair (fun a b ->
      let io = Linebuf.create ~max_line:100 a in
      send b (String.make 60 'x');
      Alcotest.(check status) "under the bound" `More (fst (read_lines io));
      send b (String.make 60 'x' ^ "\nnext\n");
      (* The newline arrives with the byte that crosses the bound, so
         the line completes; a newline-free tail past it does not. *)
      Alcotest.(check (list string)) "completed line" [ String.make 120 'x'; "next" ]
        (snd (read_lines io));
      send b (String.make 101 'y');
      Alcotest.(check status) "overlong" `Overlong (fst (read_lines io));
      Alcotest.(check bool) "input ended" true (Linebuf.eof io);
      send b "z\n";
      Alcotest.(check status) "nothing more read" `Eof (fst (read_lines io)))

(* A peer that never reads: pushes and flushes fill the socket buffer,
   then the pending output; the push that would pass [max_out] drops
   the connection, and pending output never exceeds the bound. *)
let test_output_bound () =
  with_pair (fun a _b ->
      (* A small send buffer keeps what the kernel absorbs well under
         the bound, so twice the bound in pushes must trip it. *)
      Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
      let max_out = 1 lsl 20 in
      let io = Linebuf.create ~max_out a in
      let line = String.make 999 'r' in
      let pushes = ref 0 in
      let high = ref 0 in
      while (not (Linebuf.dropped io)) && !pushes < 2 * max_out / 1000 do
        Linebuf.push io line;
        Linebuf.flush io;
        incr pushes;
        high := max !high (Linebuf.pending io)
      done;
      Alcotest.(check bool) "dropped" true (Linebuf.dropped io);
      if !high > max_out then Alcotest.failf "pending reached %d > %d" !high max_out;
      if !high < max_out - 1000 then Alcotest.failf "dropped early at %d" !high;
      Alcotest.(check int) "output discarded" 0 (Linebuf.pending io);
      Alcotest.(check bool) "input ended" true (Linebuf.eof io);
      Linebuf.push io line;
      Alcotest.(check int) "later pushes ignored" 0 (Linebuf.pending io))

(* Once the bound trips inside the line callback, the rest of that
   read is not handed out. *)
let test_bound_stops_admission () =
  with_pair (fun a b ->
      let io = Linebuf.create ~max_out:1000 a in
      send b (String.concat "" (List.init 1000 (fun _ -> "x\n")));
      let admitted = ref 0 in
      let st =
        Linebuf.read io (fun _ ->
            incr admitted;
            Linebuf.push io (String.make 99 'e'))
      in
      Alcotest.(check status) "ended" `Eof st;
      Alcotest.(check int) "admitted until the bound" 11 !admitted;
      Alcotest.(check bool) "dropped" true (Linebuf.dropped io))

let suite =
  [
    Alcotest.test_case "line reassembly" `Quick test_reassembly;
    Alcotest.test_case "overlong line" `Quick test_overlong;
    Alcotest.test_case "output bound vs unread peer" `Quick test_output_bound;
    Alcotest.test_case "bound stops admission" `Quick test_bound_stops_admission;
  ]
