(* Process-wide metrics registry: counters, gauges and log2-bucketed
   latency histograms, all timestamped with the one monotonic clock
   (Im_util.Stopwatch). Every layer of the system registers into the
   default registry at module-initialization time, so handles are
   resolved once and the per-event cost is a field update — cheap
   enough for the optimizer hot path.

   Identity is (name, sorted labels). Renderings:
   - [dump]     stable alphabetical "name{k="v"} value" lines for
                tests and the daemon's METRICS verb;
   - [to_json]  a JSON array embedded in bench artifacts. *)

module Stopwatch = Im_util.Stopwatch

type labels = (string * string) list

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       name

let check_name name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name)

let normalize_labels labels =
  let sorted =
    List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels
  in
  if List.length sorted <> List.length labels then
    invalid_arg "Metrics: duplicate label keys";
  List.iter (fun (k, _) -> check_name k) sorted;
  sorted

(* ---- Individual metrics ---- *)

(* All metric cells are [Atomic]s: instrumented code runs on the
   daemon's dispatch thread and its epoch worker domain at once, and
   plain mutable fields would lose updates (and are data races under
   the OCaml 5 memory model). *)

module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let incr c = Atomic.incr c

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    ignore (Atomic.fetch_and_add c n)

  let value c = Atomic.get c
  let reset c = Atomic.set c 0
end

module Gauge = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.
  let set g v = Atomic.set g v
  let set_int g n = Atomic.set g (float_of_int n)

  let rec add g d =
    let cur = Atomic.get g in
    if not (Atomic.compare_and_set g cur (cur +. d)) then add g d

  let value g = Atomic.get g
  let reset g = Atomic.set g 0.
end

module Histogram = struct
  (* Log2 buckets over nanoseconds: bucket 0 holds v < 1 ns (and 0),
     bucket i (1 <= i < overflow) holds v in [2^(i-1), 2^i) ns, the
     last bucket holds everything from ~292 years up. Observations are
     seconds (the natural unit of a span); [Float.frexp] gives the
     bucket index in a handful of flops. *)
  let buckets = 64
  let ns = 1e-9

  type t = {
    counts : int Atomic.t array;
    count : int Atomic.t;
    sum : float Atomic.t;  (* seconds *)
  }

  let make () =
    {
      counts = Array.init buckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0.;
    }

  let bucket_of v =
    if not (v > ns) then 0
    else begin
      let _, e = Float.frexp (v /. ns) in
      (* v/ns in [2^(e-1), 2^e) *)
      if e < 0 then 0 else if e >= buckets then buckets - 1 else e
    end

  (* Inclusive upper bound of a bucket, in seconds. *)
  let bucket_upper i =
    if i >= buckets - 1 then infinity else Float.ldexp ns i

  let rec add_float cell d =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. d)) then add_float cell d

  let observe h v =
    let v = if Float.is_nan v || v < 0. then 0. else v in
    Atomic.incr h.counts.(bucket_of v);
    Atomic.incr h.count;
    add_float h.sum v

  let count h = Atomic.get h.count
  let sum h = Atomic.get h.sum

  (* Upper bound of the bucket containing the p-quantile observation:
     within a factor of 2 of the true value, deterministic, and
     monotone in p. *)
  let percentile h p =
    let total = Atomic.get h.count in
    if total = 0 then 0.
    else begin
      let p = Float.min 1. (Float.max 0. p) in
      let rank = int_of_float (ceil (p *. float_of_int total)) in
      let rank = max 1 rank in
      let rec find i cum =
        if i >= buckets then infinity
        else begin
          let cum = cum + Atomic.get h.counts.(i) in
          if cum >= rank then bucket_upper i else find (i + 1) cum
        end
      in
      find 0 0
    end

  let reset h =
    Array.iter (fun c -> Atomic.set c 0) h.counts;
    Atomic.set h.count 0;
    Atomic.set h.sum 0.
end

(* ---- Registry ---- *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type key = { k_name : string; k_labels : labels }

(* The lock guards [tbl] (registration is rare but may race with a
   renderer); the metric cells themselves are atomics and are read and
   updated without it. *)
type registry = { tbl : (key, metric) Hashtbl.t; reg_lock : Mutex.t }

let create_registry () = { tbl = Hashtbl.create 64; reg_lock = Mutex.create () }
let default = create_registry ()

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let register ~registry ~labels name make unwrap =
  check_name name;
  let key = { k_name = name; k_labels = normalize_labels labels } in
  Mutex.lock registry.reg_lock;
  let result =
    match Hashtbl.find_opt registry.tbl key with
    | Some m ->
      (match unwrap m with
       | Some v -> Ok v
       | None ->
         Error
           (Printf.sprintf "Metrics: %s already registered as a %s" name
              (kind_name m)))
    | None ->
      let v, m = make () in
      Hashtbl.add registry.tbl key m;
      Ok v
  in
  Mutex.unlock registry.reg_lock;
  match result with Ok v -> v | Error msg -> invalid_arg msg

let counter ?(registry = default) ?(labels = []) name =
  register ~registry ~labels name
    (fun () -> let c = Counter.make () in (c, M_counter c))
    (function M_counter c -> Some c | M_gauge _ | M_histogram _ -> None)

let gauge ?(registry = default) ?(labels = []) name =
  register ~registry ~labels name
    (fun () -> let g = Gauge.make () in (g, M_gauge g))
    (function M_gauge g -> Some g | M_counter _ | M_histogram _ -> None)

let histogram ?(registry = default) ?(labels = []) name =
  register ~registry ~labels name
    (fun () -> let h = Histogram.make () in (h, M_histogram h))
    (function M_histogram h -> Some h | M_counter _ | M_gauge _ -> None)

let remove_labelled labels =
  let labels = normalize_labels labels in
  let keep k m = if k.k_labels = labels then None else Some m in
  Mutex.protect default.reg_lock (fun () -> Hashtbl.filter_map_inplace keep default.tbl)

let reset ?(registry = default) () =
  Mutex.lock registry.reg_lock;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> Counter.reset c
      | M_gauge g -> Gauge.reset g
      | M_histogram h -> Histogram.reset h)
    registry.tbl;
  Mutex.unlock registry.reg_lock

(* ---- Spans ---- *)

module Span = struct
  type t = { h : Histogram.t; t0 : int64 }

  let start h = { h; t0 = Stopwatch.now_ns () }

  let stop s =
    let dt = Stopwatch.elapsed_since_ns s.t0 in
    Histogram.observe s.h dt;
    dt
end

let time h f =
  let s = Span.start h in
  Fun.protect ~finally:(fun () -> ignore (Span.stop s)) f

(* ---- Renderings ---- *)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let labels_repr = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let sorted_metrics registry =
  Mutex.lock registry.reg_lock;
  let entries = Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry.tbl [] in
  Mutex.unlock registry.reg_lock;
  entries
  |> List.sort (fun (a, _) (b, _) ->
         match String.compare a.k_name b.k_name with
         | 0 -> compare a.k_labels b.k_labels
         | c -> c)

(* One line per counter/gauge; five per histogram (count, p50, p95,
   p99, sum). Alphabetical in (name, labels), suffixes ordered as
   listed — stable across runs and hash-table states. *)
let dump_lines registry =
  List.concat_map
    (fun (k, m) ->
      let l = labels_repr k.k_labels in
      match m with
      | M_counter c -> [ Printf.sprintf "%s%s %d" k.k_name l (Counter.value c) ]
      | M_gauge g ->
        [ Printf.sprintf "%s%s %s" k.k_name l (float_repr (Gauge.value g)) ]
      | M_histogram h ->
        [
          Printf.sprintf "%s_count%s %d" k.k_name l (Histogram.count h);
          Printf.sprintf "%s_p50%s %s" k.k_name l
            (float_repr (Histogram.percentile h 0.50));
          Printf.sprintf "%s_p95%s %s" k.k_name l
            (float_repr (Histogram.percentile h 0.95));
          Printf.sprintf "%s_p99%s %s" k.k_name l
            (float_repr (Histogram.percentile h 0.99));
          Printf.sprintf "%s_sum%s %s" k.k_name l
            (float_repr (Histogram.sum h));
        ])
    (sorted_metrics registry)

let dump ?(registry = default) () =
  String.concat "" (List.map (fun l -> l ^ "\n") (dump_lines registry))

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_nan v then "null"
  else if v = infinity then "1e999"
  else if v = neg_infinity then "-1e999"
  else Printf.sprintf "%.9g" v

let to_json ?(registry = default) () =
  let obj k m fields =
    let labels =
      String.concat ","
        (List.map
           (fun (lk, lv) ->
             Printf.sprintf "\"%s\": \"%s\"" (json_escape lk) (json_escape lv))
           k.k_labels)
    in
    Printf.sprintf
      "{\"name\": \"%s\", \"kind\": \"%s\", \"labels\": {%s}, %s}"
      (json_escape k.k_name) (kind_name m) labels fields
  in
  let entries =
    List.map
      (fun (k, m) ->
        match m with
        | M_counter c ->
          obj k m (Printf.sprintf "\"value\": %d" (Counter.value c))
        | M_gauge g ->
          obj k m
            (Printf.sprintf "\"value\": %s" (json_float (Gauge.value g)))
        | M_histogram h ->
          obj k m
            (Printf.sprintf
               "\"count\": %d, \"sum\": %s, \"p50\": %s, \"p95\": %s, \
                \"p99\": %s"
               (Histogram.count h)
               (json_float (Histogram.sum h))
               (json_float (Histogram.percentile h 0.50))
               (json_float (Histogram.percentile h 0.95))
               (json_float (Histogram.percentile h 0.99))))
      (sorted_metrics registry)
  in
  "[" ^ String.concat ", " entries ^ "]"

(* ---- Test / tooling helpers ---- *)

let find_value ?(registry = default) ?(labels = []) name =
  let key = { k_name = name; k_labels = normalize_labels labels } in
  Mutex.lock registry.reg_lock;
  let m = Hashtbl.find_opt registry.tbl key in
  Mutex.unlock registry.reg_lock;
  match m with
  | Some (M_counter c) -> Some (float_of_int (Counter.value c))
  | Some (M_gauge g) -> Some (Gauge.value g)
  | Some (M_histogram _) | None -> None
