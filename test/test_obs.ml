(* Unit tests for the Im_obs metrics registry: counter/gauge/histogram
   semantics, log2 bucketing and percentile bounds, registration-order
   independence of the dump, and the span/timing helpers. *)

module Metrics = Im_obs.Metrics

(* ---- Counters and gauges ---- *)

let test_counter () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r "c_total" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.Counter.value c);
  (* The same (name, labels) resolves to the same cell. *)
  let c' = Metrics.counter ~registry:r "c_total" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "get-or-create aliases" 43 (Metrics.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.Counter.add: negative increment") (fun () ->
      Metrics.Counter.add c (-1))

let test_gauge () =
  let r = Metrics.create_registry () in
  let g = Metrics.gauge ~registry:r "g" in
  Metrics.Gauge.set g 2.5;
  Metrics.Gauge.add g (-1.0);
  Alcotest.(check (float 1e-9)) "set + add" 1.5 (Metrics.Gauge.value g);
  Metrics.Gauge.set_int g 7;
  Alcotest.(check (float 1e-9)) "set_int" 7.0 (Metrics.Gauge.value g)

let test_labels () =
  let r = Metrics.create_registry () in
  let a = Metrics.counter ~registry:r ~labels:[ ("x", "1"); ("y", "2") ] "m" in
  (* Label order must not distinguish series. *)
  let b = Metrics.counter ~registry:r ~labels:[ ("y", "2"); ("x", "1") ] "m" in
  let other = Metrics.counter ~registry:r ~labels:[ ("x", "9") ] "m" in
  Metrics.Counter.incr a;
  Metrics.Counter.incr b;
  Alcotest.(check int) "same series" 2 (Metrics.Counter.value a);
  Alcotest.(check int) "distinct series" 0 (Metrics.Counter.value other)

let test_kind_mismatch () =
  let r = Metrics.create_registry () in
  let _ = Metrics.counter ~registry:r "m_total" in
  let raised =
    try
      let _ = Metrics.gauge ~registry:r "m_total" in
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "re-registering as another kind raises" true raised

let test_bad_name () =
  let r = Metrics.create_registry () in
  let raised =
    try
      let _ = Metrics.counter ~registry:r "bad name" in
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "space in name raises" true raised

(* ---- Histograms ---- *)

let test_histogram_bounds () =
  (* A single observation's percentile is the enclosing bucket's upper
     bound: v <= p <= 2v for any v above one nanosecond. *)
  List.iter
    (fun v ->
      let r = Metrics.create_registry () in
      let h = Metrics.histogram ~registry:r "h_seconds" in
      Metrics.Histogram.observe h v;
      let p = Metrics.Histogram.percentile h 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "%g <= p50 %g <= 2*%g" v p v)
        true
        (v <= p && p <= 2. *. v))
    [ 1e-9; 5e-9; 1e-6; 3.7e-4; 0.01; 1.5; 12.0 ];
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "h_seconds" in
  Alcotest.(check (float 0.)) "empty percentile" 0.
    (Metrics.Histogram.percentile h 0.99);
  Metrics.Histogram.observe h (-5.0);
  Metrics.Histogram.observe h Float.nan;
  Alcotest.(check int) "negative and NaN clamp to 0 but count" 2
    (Metrics.Histogram.count h);
  Alcotest.(check (float 0.)) "clamped sum" 0. (Metrics.Histogram.sum h)

let test_histogram_percentiles () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "h_seconds" in
  (* 90 fast observations, 10 slow: p50 must sit near the fast mode,
     p99 near the slow one, and percentiles must be monotone in p. *)
  for _ = 1 to 90 do
    Metrics.Histogram.observe h 1e-6
  done;
  for _ = 1 to 10 do
    Metrics.Histogram.observe h 0.5
  done;
  let p50 = Metrics.Histogram.percentile h 0.50 in
  let p95 = Metrics.Histogram.percentile h 0.95 in
  let p99 = Metrics.Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p50 in fast mode" true (p50 <= 2e-6);
  Alcotest.(check bool) "p99 in slow mode" true (p99 >= 0.5);
  Alcotest.(check bool) "monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-3)) "sum" (90. *. 1e-6 +. 5.0)
    (Metrics.Histogram.sum h)

let test_bucket_upper_monotone () =
  for i = 0 to 62 do
    Alcotest.(check bool)
      (Printf.sprintf "bucket %d upper < bucket %d upper" i (i + 1))
      true
      (Metrics.Histogram.bucket_upper i < Metrics.Histogram.bucket_upper (i + 1))
  done

(* ---- Span and time ---- *)

let test_span_and_time () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "h_seconds" in
  let s = Metrics.Span.start h in
  let elapsed = Metrics.Span.stop s in
  Alcotest.(check bool) "span elapsed >= 0" true (elapsed >= 0.);
  Alcotest.(check int) "span recorded" 1 (Metrics.Histogram.count h);
  Alcotest.(check int) "time returns result" 42
    (Metrics.time h (fun () -> 42));
  Alcotest.(check int) "time recorded" 2 (Metrics.Histogram.count h);
  (* The exception path must record too. *)
  (try Metrics.time h (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check int) "time on exception recorded" 3
    (Metrics.Histogram.count h)

(* ---- Dump determinism and renderings ---- *)

let populate order r =
  (* Register the same three metrics in the given order and apply the
     same updates; the dump must not depend on the order. *)
  let mk = function
    | `C -> ignore (Metrics.counter ~registry:r "beta_total")
    | `G -> ignore (Metrics.gauge ~registry:r "gamma")
    | `H ->
      ignore
        (Metrics.histogram ~registry:r ~labels:[ ("k", "v") ] "alpha_seconds")
  in
  List.iter mk order;
  Metrics.Counter.add (Metrics.counter ~registry:r "beta_total") 3;
  Metrics.Gauge.set (Metrics.gauge ~registry:r "gamma") 1.5;
  Metrics.Histogram.observe
    (Metrics.histogram ~registry:r ~labels:[ ("k", "v") ] "alpha_seconds")
    0.25

let test_dump_deterministic () =
  let r1 = Metrics.create_registry () in
  let r2 = Metrics.create_registry () in
  populate [ `C; `G; `H ] r1;
  populate [ `H; `G; `C ] r2;
  let d1 = Metrics.dump ~registry:r1 () in
  let d2 = Metrics.dump ~registry:r2 () in
  Alcotest.(check string) "registration order is invisible" d1 d2;
  (* Alphabetical: the labelled histogram's lines lead. *)
  (match Metrics.dump_lines r1 with
   | first :: _ ->
     Alcotest.(check bool)
       ("first line is alpha_seconds_count: " ^ first)
       true
       (String.length first > 19
       && String.sub first 0 19 = "alpha_seconds_count")
   | [] -> Alcotest.fail "empty dump");
  Alcotest.(check bool) "counter line present" true
    (Astring_contains.contains d1 "beta_total 3")

let test_reset () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r "c_total" in
  let h = Metrics.histogram ~registry:r "h_seconds" in
  Metrics.Counter.add c 5;
  Metrics.Histogram.observe h 1.0;
  Metrics.reset ~registry:r ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.Histogram.count h);
  (* Handles stay live after reset. *)
  Metrics.Counter.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Metrics.Counter.value c)

let test_find_value () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r ~labels:[ ("x", "1") ] "c_total" in
  Metrics.Counter.add c 9;
  Alcotest.(check (option (float 0.))) "counter found" (Some 9.)
    (Metrics.find_value ~registry:r ~labels:[ ("x", "1") ] "c_total");
  Alcotest.(check (option (float 0.))) "absent is None" None
    (Metrics.find_value ~registry:r "nope_total")

let test_json () =
  let r = Metrics.create_registry () in
  Metrics.Counter.incr (Metrics.counter ~registry:r "c_total");
  Metrics.Histogram.observe (Metrics.histogram ~registry:r "h_seconds") 0.001;
  let j = Metrics.to_json ~registry:r () in
  Alcotest.(check bool) "json array" true
    (String.length j > 0 && j.[0] = '[');
  Alcotest.(check bool) "json carries the histogram" true
    (Astring_contains.contains j "\"name\": \"h_seconds\"")

let () =
  Alcotest.run "im_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "bad name" `Quick test_bad_name;
          Alcotest.test_case "histogram bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "bucket upper monotone" `Quick
            test_bucket_upper_monotone;
          Alcotest.test_case "span and time" `Quick test_span_and_time;
          Alcotest.test_case "dump deterministic" `Quick
            test_dump_deterministic;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "find value" `Quick test_find_value;
          Alcotest.test_case "json" `Quick test_json;
        ] );
    ]
