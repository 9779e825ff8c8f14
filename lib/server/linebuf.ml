type t = {
  fd : Unix.file_descr;
  max_line : int;
  max_out : int;
  partial : Buffer.t;  (** bytes after the last newline read *)
  mutable out : Bytes.t;  (** pending output is [out.[lo .. hi - 1]] *)
  mutable lo : int;
  mutable hi : int;
  mutable input_done : bool;
  mutable dropped : bool;
}

(* One read buffer per process: every loop using it is single-threaded,
   and [read] consumes a chunk fully before returning. *)
let chunk = Bytes.create 65536

(* An idle connection keeps at most this much output capacity. *)
let keep_capacity = 1 lsl 20

let create ?(max_line = max_int) ?(max_out = max_int) fd =
  {
    fd;
    max_line;
    max_out;
    partial = Buffer.create 256;
    out = Bytes.empty;
    lo = 0;
    hi = 0;
    input_done = false;
    dropped = false;
  }

let fd t = t.fd
let eof t = t.input_done
let dropped t = t.dropped
let pending t = t.hi - t.lo
let shut_input t = t.input_done <- true

let drop t =
  t.input_done <- true;
  t.dropped <- true;
  Buffer.reset t.partial;
  t.out <- Bytes.empty;
  t.lo <- 0;
  t.hi <- 0

let push t line =
  if not t.dropped then begin
    let len = String.length line in
    let pending = t.hi - t.lo in
    let need = pending + len + 1 in
    if need > t.max_out then drop t
    else begin
      if t.hi + len + 1 > Bytes.length t.out then begin
        (* Compact in place when that makes room, else grow (doubling,
           but never past the bound). *)
        let cap = Bytes.length t.out in
        let dst =
          if need <= cap then t.out
          else Bytes.create (max need (min (max 4096 (2 * cap)) t.max_out))
        in
        Bytes.blit t.out t.lo dst 0 pending;
        t.out <- dst;
        t.lo <- 0;
        t.hi <- pending
      end;
      Bytes.blit_string line 0 t.out t.hi len;
      Bytes.set t.out (t.hi + len) '\n';
      t.hi <- t.hi + len + 1
    end
  end

let rec flush t =
  if t.hi > t.lo then
    match Unix.single_write t.fd t.out t.lo (t.hi - t.lo) with
    | 0 -> ()
    | n ->
        t.lo <- t.lo + n;
        if t.lo = t.hi then begin
          t.lo <- 0;
          t.hi <- 0;
          if Bytes.length t.out > keep_capacity then t.out <- Bytes.empty
        end;
        flush t
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> drop t

let newline_in n start =
  let rec go i =
    if i >= n then -1 else if Bytes.unsafe_get chunk i = '\n' then i else go (i + 1)
  in
  go start

(* Hand out the complete lines of [chunk.[0 .. n - 1]], the first one
   prefixed by the partial line left over from earlier reads. *)
let split t n on_line =
  let rec go start =
    if t.input_done then `Eof
    else
      let nl = newline_in n start in
      if nl < 0 then begin
        Buffer.add_subbytes t.partial chunk start (n - start);
        if Buffer.length t.partial > t.max_line then begin
          Buffer.reset t.partial;
          t.input_done <- true;
          `Overlong
        end
        else `More
      end
      else begin
        let line =
          if Buffer.length t.partial = 0 then Bytes.sub_string chunk start (nl - start)
          else begin
            Buffer.add_subbytes t.partial chunk start (nl - start);
            let line = Buffer.contents t.partial in
            Buffer.reset t.partial;
            line
          end
        in
        on_line line;
        go (nl + 1)
      end
  in
  go 0

let read t on_line =
  if t.input_done then `Eof
  else
    match Unix.read t.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        t.input_done <- true;
        `Eof
    | n -> split t n on_line
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> `More
    | exception Unix.Unix_error (_, _, _) ->
        t.input_done <- true;
        `Eof
