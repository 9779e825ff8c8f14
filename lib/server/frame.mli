(** Wire frames of the front-tier/worker protocol, one frame per line
    over the worker's inherited socketpair:

    {v
    front -> worker:   Q <token> <raw request line>      route a request
                       S                                 drain and exit
    worker -> front:   A <token> <raw response line>     answer a token
    v}

    Tokens are the front's per-request integers; the worker echoes them
    verbatim (they double as the engine-side client id, so
    {!Engine.run_batch}'s [(client, response)] pairs are already
    [(token, response)]).  Payloads are complete protocol lines and
    never contain newlines, so framing is trivial. *)

type t =
  | Query of int * string  (** token, raw request line *)
  | Answer of int * string  (** token, raw response line *)
  | Stop  (** graceful drain order (front to worker) *)

val encode : t -> string
(** One line, without its newline (the inverse of {!decode}). *)

val decode : string -> (t, string) result
(** Parse one line (without its newline). *)
