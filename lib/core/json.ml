type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* Keep a fractional marker so the value re-parses as a float. *)
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f || Float.is_integer (f /. 0.0) then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_to_string f)
  | Str s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          render buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          render buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  render buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the raw string.                     *)

exception Parse_error of int * string

(* Bounds parser recursion: pathological inputs like "[[[[…" must fail
   with a Parse_error instead of a Stack_overflow, which would escape
   the [try] below and kill a long-running server. *)
let max_depth = 512

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= len && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > len then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c -> c
                     | None -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* Encode the code point as UTF-8 (surrogates are kept
                      as-is in their raw form; the laboratory's payloads
                      are ASCII). *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "malformed number";
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "malformed number")
  in
  let rec parse_value depth =
    skip_ws ();
    if depth > max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then Error (Printf.sprintf "offset %d: trailing input" !pos)
    else Ok v
  with
  | Parse_error (p, msg) -> Error (Printf.sprintf "offset %d: %s" p msg)
  | Stack_overflow -> Error "nesting too deep"

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2.0 ** 52.0 ->
      Some (int_of_float f)
  | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

let int_list v =
  match v with
  | List l ->
      let ints = List.map to_int l in
      if List.exists Option.is_none ints then None
      else Some (List.map Option.get ints)
  | _ -> None
