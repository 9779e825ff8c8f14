type t = Sum | Max

let to_string = function Sum -> "sum" | Max -> "max"

let of_string = function "sum" -> Some Sum | "max" -> Some Max | _ -> None

let pp fmt t = Format.pp_print_string fmt (to_string t)
