(** Runtime values. All comparisons are total within one datatype; the
    executor and histogram code never compare values of distinct types
    (the schema guarantees this). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Date of int  (** days since an arbitrary epoch *)
  | Str of string

val compare : t -> t -> int
(** Total order. [Null] sorts lowest; values of different constructors
    are ordered by constructor (never relied upon by well-typed code). *)

val equal : t -> t -> bool

val to_float : t -> float
(** Numeric projection used by histograms: ints/dates as themselves,
    floats as-is, strings by a prefix-based embedding, [Null] as
    negative infinity. Monotone w.r.t. {!compare} within one type. *)

val datatype_matches : Datatype.t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** The literal text the lexer reads back to the same value. *)

val add_int : t -> int -> t
(** Shift an [Int] or [Date] by an integer; identity on other types.
    Used by range-predicate generators. *)
