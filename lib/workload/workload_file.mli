(** Load workloads from SQL script files — the "log of SQL queries at
    the server" input mode the paper describes (§3.2).

    A workload file is a sequence of semicolon-terminated SELECT
    statements in the subset of {!Im_sqlir.Parser}. A statement may be
    preceded by a frequency annotation comment:

    {v
    -- freq: 12.5
    SELECT ... ;
    v}

    Statements without an annotation get frequency 1. Whitespace inside
    the annotation is free: [--freq:3], [--   freq : 3] and
    [-- FREQ:3.5] all parse. Frequencies must be positive numbers —
    zero, negative or malformed values are a parse error, never
    silently dropped. [--] comments that are not frequency annotations
    are ignored. Statements parse through one
    {!Im_sqlir.Parser.Prepared} cache per call, with
    {!Im_sqlir.Parser.parse_query}'s results. *)

val parse :
  schema:Im_sqlir.Schema.t ->
  ?id_prefix:string ->
  string ->
  (Workload.t, string) result
(** Parse workload text. *)

val fold :
  schema:Im_sqlir.Schema.t ->
  ?id_prefix:string ->
  string ->
  init:'a ->
  f:('a -> Im_sqlir.Query.t -> float option -> 'a) ->
  ('a, string) result
(** [fold ~schema path ~init ~f] streams the script line at a time and
    calls [f acc query freq] once per statement, in file order, as soon
    as each statement's terminating [';'] is read — a 100k-statement
    replay never materializes as a list. [freq] is [Some v] when a
    frequency annotation preceded the statement, [None] otherwise (the
    all-or-none contract is {!load}'s, not the stream's). Statement ids
    are [<id_prefix>1], [<id_prefix>2], ... (default prefix ["W"]),
    numbered like the batch loader. A parse error, a malformed or
    non-positive frequency, or an annotation not followed by a
    statement stops the fold with [Error]. *)

val load :
  schema:Im_sqlir.Schema.t ->
  ?id_prefix:string ->
  string ->
  (Workload.t, string) result
(** Read and parse a file — {!fold} with entries collected and the
    all-or-none annotation rule enforced. *)

val save : Workload.t -> string -> unit
(** Write a workload back out in the loadable format. *)
