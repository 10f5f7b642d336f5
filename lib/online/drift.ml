module Compress = Im_workload.Compress
module Workload = Im_workload.Workload

type baseline = {
  b_buckets : (Compress.signature * float) list;  (** normalized shares *)
  b_unit_cost : float;
}

type verdict = {
  v_divergence : float;
  v_regression : float;
  v_fired : bool;
  v_reason : string;
}

let m_checks = Im_obs.Metrics.counter "online_drift_checks_total"
let m_fires = Im_obs.Metrics.counter "online_drift_fires_total"

type t = {
  div_threshold : float;
  cost_threshold : float;
  mutable baseline : baseline option;
  mutable checks : int;
  mutable fires : int;
}

let create ?(div_threshold = 0.35) ?(cost_threshold = 0.30) () =
  if Float.is_nan div_threshold || div_threshold < 0. then
    invalid_arg "Drift.create: div_threshold < 0 or NaN";
  if Float.is_nan cost_threshold || cost_threshold < 0. then
    invalid_arg "Drift.create: cost_threshold < 0 or NaN";
  {
    div_threshold;
    cost_threshold;
    baseline = None;
    checks = 0;
    fires = 0;
  }

let has_baseline t = t.baseline <> None

(* Each cluster's signature, as the window computed it when the slot
   was founded, with its share of the mass. The clusters keep
   [Window.clusters] order and the total is summed in that order, as
   [Workload.total_freq] sums the window's workload. *)
let distribution window =
  let clusters = Window.clusters window in
  let total = Im_util.List_ext.sum_by_f (fun c -> c.Window.cl_freq) clusters in
  if total <= 0. then []
  else
    List.map
      (fun c -> (c.Window.cl_signature, c.Window.cl_freq /. total))
      clusters

(* Project [dist] onto [buckets]: each entry's share goes to the nearest
   bucket within [Window.threshold], the remainder to an implicit "other"
   bucket. Returns (per-bucket shares, other share). *)
let project buckets dist =
  let shares = Array.make (List.length buckets) 0. in
  let other = ref 0. in
  List.iter
    (fun (sg, share) ->
      let best = ref (-1) and best_d = ref infinity in
      List.iteri
        (fun i (bsg, _) ->
          let d = Compress.distance sg bsg in
          if d < !best_d then begin
            best_d := d;
            best := i
          end)
        buckets;
      if !best >= 0 && !best_d <= Window.threshold then
        shares.(!best) <- shares.(!best) +. share
      else other := !other +. share)
    dist;
  (shares, !other)

let total_variation buckets current =
  let q, q_other = project buckets current in
  let sum = ref q_other in
  (* baseline "other" share is 0 by construction *)
  List.iteri
    (fun i (_, p) -> sum := !sum +. Float.abs (p -. q.(i)))
    buckets;
  0.5 *. !sum

let unit_cost service config window =
  let w = Window.to_workload window in
  let mass = Workload.total_freq w in
  if mass <= 0. then 0.
  else Im_costsvc.Service.workload_cost service config w /. mass

let rebase t service config window =
  t.baseline <-
    Some
      {
        b_buckets = distribution window;
        b_unit_cost = unit_cost service config window;
      }

let check t service config window =
  t.checks <- t.checks + 1;
  Im_obs.Metrics.Counter.incr m_checks;
  match t.baseline with
  | None ->
    { v_divergence = 0.; v_regression = 0.; v_fired = false; v_reason = "-" }
  | Some b ->
    let divergence = total_variation b.b_buckets (distribution window) in
    let regression =
      if b.b_unit_cost <= 0. then 0.
      else
        Float.max 0. ((unit_cost service config window /. b.b_unit_cost) -. 1.)
    in
    let div_fired = divergence > t.div_threshold in
    let cost_fired = regression > t.cost_threshold in
    let fired = div_fired || cost_fired in
    if fired then begin
      t.fires <- t.fires + 1;
      Im_obs.Metrics.Counter.incr m_fires
    end;
    {
      v_divergence = divergence;
      v_regression = regression;
      v_fired = fired;
      v_reason =
        (match (div_fired, cost_fired) with
         | true, true -> "divergence+cost"
         | true, false -> "divergence"
         | false, true -> "cost"
         | false, false -> "-");
    }

let checks t = t.checks
let fires t = t.fires
