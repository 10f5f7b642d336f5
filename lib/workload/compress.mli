(** Physical-design signatures of queries: the distance that workload
    compression and the online window cluster by.

    The paper's §3.5.3 lists workload compression as the lever for
    taming optimizer invocations and points beyond exact duplicate
    removal (later developed as "Compressing SQL Workloads", Chaudhuri,
    Gupta & Narasayya). A query's signature is the sets of tables,
    referenced columns, sargable columns and order/group columns that
    drive index choices. The batch compactor ([Im_scale.Scale])
    buckets by {!signature_key}; the online window ([Im_online.Window])
    and drift detector cluster by {!distance}.

    Distance 0 means identical signatures (a superset of textual
    equality: constants are ignored, since two point queries on the same
    column want the same indexes). *)

type signature

val signature : Im_sqlir.Query.t -> signature

val distance : signature -> signature -> float
(** Weighted Jaccard distance in [\[0, 1\]] over the signature's
    component sets; 1.0 when the queries touch disjoint tables. *)

val signature_key : signature -> string
(** Canonical string key: [signature_key a = signature_key b] iff
    [distance a b = 0.] (iff every component set is equal). Separator
    characters are control bytes no SQL identifier contains, so
    adversarial names cannot alias two distinct signatures. This is the
    hash key the streaming compactor of [Im_scale] buckets by. *)
