(** Workload-drift detection between tuning epochs.

    After each epoch the detector {!rebase}s on the window it was tuned
    for: it stores the window's normalized signature distribution and
    its per-unit-mass what-if cost under the configuration the epoch
    installed. A later {!check} fires when either

    - {b divergence}: the total-variation distance between the current
      window's signature distribution and the baseline's exceeds
      [div_threshold]. Distributions are compared by projecting both
      onto the baseline's signature buckets (nearest leader within
      {!Window.threshold}; anything further lands in an "other" bucket),
      so renamed ids and changed constants do not register as drift but
      genuinely new query shapes do; or
    - {b cost regression}: the current window's per-unit-mass cost under
      the {e live} configuration exceeds the baseline unit cost by more
      than [cost_threshold] — traffic the installed indexes no longer
      serve well, even if its shape mix looks similar.

    Cost is evaluated through the shared {!Im_costsvc.Service}, so
    steady traffic makes checks nearly free. *)

type t

type verdict = {
  v_divergence : float;  (** total-variation distance in [0, 1] *)
  v_regression : float;  (** relative unit-cost increase; 0 when negative *)
  v_fired : bool;
  v_reason : string;  (** "divergence", "cost", "divergence+cost" or "-" *)
}

val create : ?div_threshold:float -> ?cost_threshold:float -> unit -> t
(** Defaults: [div_threshold = 0.35], [cost_threshold = 0.30]. Raises
    [Invalid_argument] when either is negative or NaN (a NaN threshold
    would never fire); values above 1 are legal and disable the
    divergence trigger. *)

val has_baseline : t -> bool
(** False until the first {!rebase}; {!check} never fires without a
    baseline (the bootstrap epoch is the service's job). *)

val rebase : t -> Im_costsvc.Service.t -> Im_catalog.Config.t -> Window.t -> unit
(** [rebase t service config window] records [window]'s signature
    distribution and unit cost under [config] as the new baseline. The
    distribution reads the signatures the window stored when each
    cluster was founded; the unit cost prices {!Window.to_workload}. *)

val check :
  t -> Im_costsvc.Service.t -> Im_catalog.Config.t -> Window.t -> verdict
(** Compare the current window against the baseline; returns an unfired
    verdict with zero divergence when no baseline exists. *)

val checks : t -> int
val fires : t -> int
