module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Access_path = Im_optimizer.Access_path
module Optimizer = Im_optimizer.Optimizer
module Plan = Im_optimizer.Plan
module Metrics = Im_obs.Metrics

(* Process-wide metrics, aggregated across every deriver instance. The
   live entry count is per deriver ({!atom_entries}): a process-wide
   gauge could only ever grow, since nothing subtracts a dropped
   deriver's entries. *)
let m_derived = Metrics.counter "derive_hits_total"
let m_atom_hits = Metrics.counter "derive_atom_hits_total"
let m_atom_misses = Metrics.counter "derive_atom_misses_total"
let m_validations = Metrics.counter "derive_validations_total"

exception Mismatch of string

(* ---- Keys ----

   Atoms are keyed by the identities the values carry — the query's
   canonical text and the index's id — plus the probe columns: for a
   fixed database, (query text, table, probe columns) uniquely
   determines the [Access_path.input] the planner will ask about —
   selections and required columns are functions of the query, the
   per-probe selectivities are the probe columns' densities — so a
   cached atom is the atom for every configuration containing that
   index. *)

type atom_key = {
  ak_query : string;
  ak_table : string;
  ak_probe : string list;
  ak_index : int;
}

type heap_key = {
  hk_query : string;
  hk_table : string;
  hk_probe : string list;
}

(* The atom and heap tables and their hit/miss counts are touched only
   under [lock]: a daemon epoch on the worker domain shares a tenant's
   deriver with the dispatch thread. *)
type t = {
  db : Database.t;
  validate : bool;
  lock : Mutex.t;
  atoms : (atom_key, Access_path.atom) Hashtbl.t;
  heaps : (heap_key, Access_path.choice) Hashtbl.t;
  mutable atom_hits : int;
  mutable atom_misses : int;
  derived : int Atomic.t;
  validations : int Atomic.t;
}

let env_validate () =
  match Sys.getenv_opt "IM_VALIDATE_DERIVE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let create ?validate db =
  {
    db;
    validate = (match validate with Some v -> v | None -> env_validate ());
    lock = Mutex.create ();
    atoms = Hashtbl.create 256;
    heaps = Hashtbl.create 64;
    atom_hits = 0;
    atom_misses = 0;
    derived = Atomic.make 0;
    validations = Atomic.make 0;
  }

let database t = t.db
let validating t = t.validate
let derived t = Atomic.get t.derived
let validations t = Atomic.get t.validations
let locked t f = Mutex.protect t.lock f
let atom_hits t = locked t (fun () -> t.atom_hits)
let atom_misses t = locked t (fun () -> t.atom_misses)

let atom_entries t =
  locked t (fun () -> Hashtbl.length t.atoms + Hashtbl.length t.heaps)

(* ---- Atom cache ---- *)

let probe_of (input : Access_path.input) =
  List.map fst input.Access_path.ap_param_eq

let atom t q (input : Access_path.input) ix =
  let key =
    {
      ak_query = q.Query.q_canon;
      ak_table = input.Access_path.ap_table;
      ak_probe = probe_of input;
      ak_index = ix.Index.idx_id;
    }
  in
  locked t (fun () ->
      match Hashtbl.find_opt t.atoms key with
      | Some a ->
        t.atom_hits <- t.atom_hits + 1;
        Metrics.Counter.incr m_atom_hits;
        a
      | None ->
        (* Computed under the lock: concurrent misses on one key
           serialize and the loser scores a hit, so hit/miss totals
           equal a sequential run's (same discipline as the costsvc
           miss path). *)
        let a = Access_path.atom t.db input ix in
        t.atom_misses <- t.atom_misses + 1;
        Metrics.Counter.incr m_atom_misses;
        Hashtbl.add t.atoms key a;
        a)

let cached_heap t q (input : Access_path.input) =
  let key =
    {
      hk_query = q.Query.q_canon;
      hk_table = input.Access_path.ap_table;
      hk_probe = probe_of input;
    }
  in
  locked t (fun () ->
      match Hashtbl.find_opt t.heaps key with
      | Some h -> h
      | None ->
        let h = Access_path.heap_choice t.db input in
        Hashtbl.add t.heaps key h;
        h)

(* ---- The derived provider ----

   Both accessors are served exactly: the per-table best, and the full
   candidate list [plan_with] weighs against a sort for a single-table
   ORDER BY, so every query shape derives. *)

let provider t config q =
  let assemble input =
    Access_path.assemble t.db input ~heap:(cached_heap t q input)
      (List.map (atom t q input)
         (Config.on_table config input.Access_path.ap_table))
  in
  {
    Optimizer.pa_best = (fun input -> Access_path.best_of (assemble input));
    pa_candidates = assemble;
  }

(* ---- Answering ---- *)

let validate_against_full t config q derived_plan =
  let full = Optimizer.optimize t.db config q in
  if not (derived_plan = full) then
    raise
      (Mismatch
         (Printf.sprintf
            "derived plan diverges from the optimizer for %s (derived cost \
             %.17g, optimizer cost %.17g)"
            (Query.to_sql q) (Plan.cost derived_plan) (Plan.cost full)));
  Atomic.incr t.validations;
  Metrics.Counter.incr m_validations

let plan t config q =
  let p = Optimizer.plan_with ~provider:(provider t config q) t.db q in
  if t.validate then validate_against_full t config q p;
  Atomic.incr t.derived;
  Metrics.Counter.incr m_derived;
  p

let query_cost t config q = Plan.cost (plan t config q)
