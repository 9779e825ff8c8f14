(** Line-oriented buffered I/O over one non-blocking descriptor: the
    split-lines / bounded-push / flush of every client connection of
    the serving loop ({!Front}).

    Input: {!read} does one non-blocking read and hands every complete
    line (newline stripped) to a callback; the partial tail waits for
    the next read.  Output: {!push} appends one line to a pending
    buffer, {!flush} writes as much of it as the descriptor accepts.

    Both directions are bounded.  A partial line longer than
    [max_line] ends input ([`Overlong]); a push that would take the
    pending output past [max_out] {e drops} the connection: pending
    output is discarded, the buffers give back their memory, input
    stops (the rest of the current read is not admitted), and every
    later push is ignored. *)

type t

val create : ?max_line:int -> ?max_out:int -> Unix.file_descr -> t
(** Wrap a descriptor (the caller sets it non-blocking).  Both bounds
    default to unbounded. *)

val fd : t -> Unix.file_descr

val read : t -> (string -> unit) -> [ `More | `Eof | `Overlong ]
(** One non-blocking read.  Calls [on_line] for each complete line, in
    order, stopping early once input has ended (the callback may end
    it itself through {!push} tripping the bound; it must not call
    [read]).
    [`Eof]: input has ended — peer closed, read error, or dropped.
    [`Overlong]: the partial line passed [max_line]; its bytes are
    discarded and input has ended.  [`More]: keep reading. *)

val push : t -> string -> unit
(** Append [line] and a newline to the pending output, or drop the
    connection if that would exceed [max_out].  Ignored once dropped. *)

val flush : t -> unit
(** Write as much pending output as the descriptor accepts without
    blocking.  A write error drops the connection. *)

val shut_input : t -> unit
(** End input but keep flushing what is pending. *)

val eof : t -> bool
(** Input has ended: nothing more will be read. *)

val pending : t -> int
(** Bytes of output not yet written. *)

val dropped : t -> bool
(** The connection was dropped (bound tripped or write error). *)
