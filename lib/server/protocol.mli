(** Wire protocol of [bbc serve]: line-delimited JSON over a
    Unix-domain socket (or stdin/stdout in [--stdio] mode).

    Requests are single-line JSON objects

    {v {"id":1,"method":"cost","params":{"session":"s1","node":0},"deadline_ms":50} v}

    where [id] is echoed verbatim (any JSON value; [null] when absent),
    [params] defaults to [{}], and [deadline_ms] is an optional
    per-request deadline relative to arrival — requests still queued
    when it expires are answered with a structured [timeout] error
    instead of occupying a worker.

    Responses are [{"id":..,"ok":<result>}] on success and
    [{"id":..,"error":{"code":"..","message":".."}}] on failure.  Error
    codes are the closed set {!error_code}; [overloaded] is the
    backpressure signal (admission queue past its high-water mark) and
    [shutting_down] is returned for requests admitted after a drain
    began. *)

type error_code =
  | Bad_request  (** malformed JSON or missing/ill-typed envelope field *)
  | Unknown_method
  | Unknown_session
  | Bad_params
  | Timeout  (** deadline expired while queued *)
  | Overloaded  (** admission queue at capacity *)
  | Session_limit  (** session store at capacity *)
  | Shutting_down
  | Internal

type request = {
  id : Bbc.Json.t;  (** echoed verbatim; [Null] when absent *)
  meth : string;
  params : Bbc.Json.t;  (** [Obj []] when absent *)
  deadline_ms : int option;
}

val methods : string list
(** Every method the server implements, sorted. *)

val parse_request : string -> (request, Bbc.Json.t * error_code * string) result
(** Parse one request line.  The error carries the request id when one
    could be recovered (so the reply can still be correlated), the code
    ({!Bad_request} or {!Unknown_method}) and a message. *)

val ok : id:Bbc.Json.t -> Bbc.Json.t -> string
(** Success response line (no trailing newline). *)

val error : id:Bbc.Json.t -> error_code -> string -> string
(** Error response line (no trailing newline). *)
