type t = Sum | Max

let to_string = function Sum -> "sum" | Max -> "max"

let pp fmt t = Format.pp_print_string fmt (to_string t)
