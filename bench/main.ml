(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the index).

   Usage: dune exec bench/main.exe [-- experiment ...]
   where experiment is one of e0a e0b fig5 fig6 fig7 fig8 ablate costval
   micro online scale mine intake
   (default: everything). *)

let experiments =
  [
    ("e0a", Exp_intro.run_e0a);
    ("e0b", Exp_intro.run_e0b);
    ("fig5", Exp_fig56.run_fig5);
    ("fig6", Exp_fig56.run_fig6);
    ("fig7", Exp_fig7.run);
    ("fig8", Exp_fig8.run);
    ("ablate", Exp_ablate.run);
    ("costval", Exp_costval.run);
    ("micro", Exp_micro.run);
    ("online", Exp_online.run);
    ("scale", Exp_scale.run);
    ("mine", Exp_mine.run);
    ("intake", Exp_intake.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  print_endline "Index Merging (Chaudhuri & Narasayya, ICDE 1999) — reproduction";
  Printf.printf "TPC-D scale factor: %g (set IM_BENCH_SF to change)\n%!"
    Exp_common.tpcd_sf;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let (), elapsed = Im_util.Stopwatch.time f in
        Printf.printf "\n[%s finished in %.1fs]\n%!" name elapsed
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 2)
    requested
