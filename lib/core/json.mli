(** Minimal JSON values (stdlib-only), shared by the {!Codec} JSON
    encoders, the [bbc serve] wire protocol, and the [--json] flags.

    The representation distinguishes [Int] from [Float] so graph sizes,
    costs, and distances round-trip exactly; a number literal parses as
    [Int] iff it has no fraction, exponent, or overflow.  Object keys
    keep their textual order on both encode and decode, which makes the
    compact printer deterministic — the wire protocol and the cram tests
    rely on that. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace), keys in order.
    Strings are escaped per RFC 8259; non-finite floats render as
    [null]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error.  Errors
    carry a character offset.  Nesting deeper than 512 levels is
    rejected as a parse error (never a [Stack_overflow]), so untrusted
    wire input cannot blow the stack. *)

(** {1 Accessors}

    Total functions used by decoders: they return [None] on a kind
    mismatch instead of raising. *)

val member : string -> t -> t option
(** Field lookup; [None] when absent or not an object. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float : t -> float option
(** Any number. *)

val to_bool : t -> bool option
val to_list : t -> t list option

val int_list : t -> int list option
(** A [List] whose elements are all integers. *)
