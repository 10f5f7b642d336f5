(** Load a database from a DDL schema file plus per-table CSV files, and
    dump one back out — the bridge from the user's real data into the
    merging tool.

    Layout convention: a schema file (CREATE TABLE statements) and a
    directory with one [<table>.csv] per table. CSVs have no header
    row; fields follow the schema's column order. An absent CSV loads
    the table empty. Typed conversion per column: INT and DATE parse as
    integers (DATE also accepts [yyyy-mm-dd]), FLOAT as decimals,
    VARCHAR as raw text; an empty unquoted field is NULL. *)

val value_of_field :
  Im_sqlir.Datatype.t -> string -> (Im_sqlir.Value.t, string) result

val load :
  schema_file:string -> data_dir:string -> (Im_catalog.Database.t, string) result

val dump : Im_catalog.Database.t -> schema_file:string -> data_dir:string -> unit
(** Write the DDL and one CSV per table. The directory must exist. *)
