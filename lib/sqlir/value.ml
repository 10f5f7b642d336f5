type t = Null | Int of int | Float of float | Date of int | Str of string

let rank = function
  | Null -> 0
  | Int _ -> 1
  | Float _ -> 2
  | Date _ -> 3
  | Str _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | _, _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Embed the first 6 bytes of a string as a base-256 fraction so that the
   embedding is monotone in the lexicographic order. *)
let str_to_float s =
  let acc = ref 0. in
  let scale = ref (1. /. 256.) in
  for i = 0 to min 5 (String.length s - 1) do
    acc := !acc +. (float_of_int (Char.code s.[i]) *. !scale);
    scale := !scale /. 256.
  done;
  !acc

let to_float = function
  | Null -> neg_infinity
  | Int x -> float_of_int x
  | Float x -> x
  | Date x -> float_of_int x
  | Str s -> str_to_float s

let datatype_matches dt v =
  match (dt, v) with
  | _, Null -> true
  | Datatype.Int, Int _ -> true
  | Datatype.Float, Float _ -> true
  | Datatype.Date, Date _ -> true
  | Datatype.Varchar n, Str s -> String.length s <= n
  | (Datatype.Int | Datatype.Float | Datatype.Date | Datatype.Varchar _), _ ->
    false

(* Both literal forms parse back to the same value: [%g] when its six
   significant digits hold the float exactly, else all 17 (an integral
   float below 1e6, but -0, is [%g]'s plain digits); a quote inside a
   string is doubled, as the lexer reads it. *)
let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x when Float.is_integer x && Float.abs x < 1e6 && not (x = 0. && Float.sign_bit x) ->
    string_of_int (int_of_float x)
  | Float x ->
    let short = Printf.sprintf "%g" x in
    if float_of_string short = x then short else Printf.sprintf "%.17g" x
  | Date x -> "date:" ^ string_of_int x
  | Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let pp fmt v = Format.pp_print_string fmt (to_string v)

let add_int v k =
  match v with
  | Int x -> Int (x + k)
  | Date x -> Date (x + k)
  | Null | Float _ | Str _ -> v
