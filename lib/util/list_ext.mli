(** Small list utilities shared across the reproduction. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if the list is shorter). *)

val drop : int -> 'a list -> 'a list

val dedup_keep_order : ('a -> 'a -> bool) -> 'a list -> 'a list
(** Remove later duplicates, keeping the first occurrence of each
    element, under the supplied equality. *)

val sum_by : ('a -> int) -> 'a list -> int

val sum_by_f : ('a -> float) -> 'a list -> float

val max_by : ('a -> float) -> 'a list -> 'a option
(** Element maximizing [f]; [None] on the empty list. First wins ties. *)

val min_by : ('a -> float) -> 'a list -> 'a option

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct positions, in order of appearance. *)

val group_by : ('a -> 'b) -> 'a list -> ('b * 'a list) list
(** Group by key (polymorphic equality on keys); groups are in order of
    first appearance and preserve element order. *)

val index_of : ('a -> bool) -> 'a list -> int option

val replace_assoc : 'k -> 'v -> ('k * 'v) list -> ('k * 'v) list
(** Replace the binding for the key (polymorphic equality), or add it. *)

val average : float list -> float
(** Arithmetic mean; 0. on the empty list. *)
