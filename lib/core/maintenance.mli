(** Index maintenance cost for batch insertions (paper §4.3.3).

    The experiment inserts 1 % of the tuples into the two largest
    tables and compares the insertion cost under the initial and the
    merged configuration. The model prices, per index on the inserted
    table, the expected number of distinct leaf pages touched by the
    batch (read + write), the split-driven page allocations, and the
    heap append itself; tests validate it against page-write counts of
    real {!Im_storage.Bptree} insertions. *)

val expected_leaves_touched : inserts:int -> leaf_pages:int -> float
(** E[distinct leaves hit by [inserts] uniform keys over [leaf_pages]
    leaves] = L(1 - (1 - 1/L)^k). *)

val index_batch_cost :
  Im_catalog.Database.t -> Im_catalog.Index.t -> inserts:int -> float
(** Modelled cost of inserting [inserts] rows into one index. *)

val config_batch_cost :
  Im_catalog.Database.t ->
  Im_catalog.Config.t ->
  inserts:(string * int) list ->
  float
(** Total maintenance cost of a batch: heap appends plus every affected
    index of the configuration. [inserts] maps table → row count. *)

val generate_inserts :
  Im_catalog.Database.t ->
  rng:Im_util.Rng.t ->
  table:string ->
  fraction:float ->
  Im_sqlir.Value.t array list
(** Synthesize [fraction] of the table's cardinality as new rows by
    resampling column values from existing rows — value distributions
    are preserved without duplicating whole tuples. *)

val measured_index_batch_cost :
  Im_catalog.Database.t ->
  Im_catalog.Index.t ->
  rows:Im_sqlir.Value.t array list ->
  float
(** Ground truth for tests: materialize the index, insert the rows into
    the real B+-tree, and return the page writes observed. (The
    database is not modified: insertions run on a copy of the tree.) *)
