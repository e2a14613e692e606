(* maxsat-weighted: weighted GC1, GC2 and BP as certified optimisation
   jobs, each run by [Service.Batch] with one worker.  GC3 is left out:
   about half its instances carry a summed soft weight above 256, where
   [Optimize]'s automatic choice switches to core-guided search, which
   does not finish on them within minutes. *)

let families = [ "GC1"; "GC2"; "BP" ]

(* instances per family in a pass, about 25 seconds of solving; the
   traced pass solves one *)
let per_family = 6

type instance = { name : string; wcnf : Sat.Wcnf.t; spec : Service.Job.spec }

(* An instance whose soft clauses can all hold together with the hard
   ones: its optimum is 0, which WalkSAT reaches in a quarter of the usual
   time.  About one BP instance in five is such (a plan whose goal holds
   at its start); how many of them a seed drew moved a pass's cost by 12%
   between seeds, so [instances] draws such an instance again. *)
let zero_cost wcnf =
  let all =
    Sat.Cnf.make ~num_vars:(Sat.Wcnf.num_vars wcnf)
      (Sat.Cnf.clauses (Sat.Wcnf.hard_cnf wcnf) @ List.map snd (Sat.Wcnf.soft_clauses wcnf))
  in
  match Cdcl.Solver.solve (Cdcl.Solver.create ~config:Cdcl.Config.minisat_like all) with
  | Sat.Answer.Sat _ -> true
  | _ -> false

let instances ~seed =
  let rng = Stats.Rng.create ~seed in
  List.concat_map
    (fun id ->
      let generate =
        Option.get (Workload.Spec.find id).Workload.Spec.generate_weighted
      in
      let rec draw () =
        let wcnf = generate rng `Small in
        if zero_cost wcnf then draw () else wcnf
      in
      List.init per_family (fun k ->
          let name = Printf.sprintf "%s-w%d" id k in
          let wcnf = draw () in
          (* a job seed of its own per instance, fixed by its position *)
          { name; wcnf; spec = Service.Job.optimize ~name ~certify:true ~seed:(17 + k) ~id:k wcnf }))
    families

let run_job inst =
  match Service.Batch.run ~workers:1 ~members:(Service.Batch.solo "minisat") [ inst.spec ] with
  | _, [ r ] -> r
  | _ -> failwith "Batch.run: expected one result"

(* The answer must satisfy every hard clause, and its cost recomputed from
   the WCNF must equal both the reported cost and lower bound. *)
let verdict inst (r : Service.Batch.job_result) =
  let record = r.Service.Batch.record in
  match r.Service.Batch.outcome with
  | Sat.Answer.Sat m ->
      let w = Oracle.weighted_cost inst.wcnf m in
      if not w.Oracle.hard_ok then Oracle.Wrong "model violates a hard clause"
      else if w.Oracle.cost <> record.Service.Telemetry.cost then
        Oracle.Wrong
          (Printf.sprintf "recomputed cost %d, reported %d" w.Oracle.cost
             record.Service.Telemetry.cost)
      else if w.Oracle.cost <> record.Service.Telemetry.lower_bound then
        Oracle.Wrong
          (Printf.sprintf "cost %d but lower bound %d" w.Oracle.cost
             record.Service.Telemetry.lower_bound)
      else if record.Service.Telemetry.verified <> "optimal" then
        Oracle.Wrong ("certificate: " ^ record.Service.Telemetry.verified)
      else Oracle.Pass
  | Sat.Answer.Unsat -> Oracle.Wrong "hard clauses reported infeasible on a planted instance"
  | Sat.Answer.Unknown _ as a -> Oracle.Failed (Sat.Answer.label a)

(* [first_only] keeps the first instance of each family. *)
let setup ?(first_only = false) ~seed () =
  let insts = instances ~seed in
  let insts =
    if first_only then List.filter (fun i -> String.ends_with ~suffix:"-w0" i.name) insts else insts
  in
  ignore (run_job (List.hd insts));
  insts

let pass tally timing insts () =
  List.iter
    (fun inst ->
      let r = Harness.op timing (fun () -> Harness.attempt (fun () -> run_job inst)) in
      Harness.record tally inst.name
        (match r with
        | Ok r -> verdict inst r
        | Error e -> Oracle.Failed (Printexc.to_string e)))
    insts

let timed ~seed ~seconds =
  let tally = Harness.tally () in
  let insts, setup_s = Harness.setup_median (setup ~seed) in
  let timing = Harness.timing () in
  ignore (Harness.timed_passes ~seconds (pass tally timing insts));
  (tally, Harness.end_to_end ~setup_s timing ~peak_mb:(Harness.peak_rss_mb ()))

(* ---- traced pass ---- *)

(* Each optimiser phase called directly on the WCNF: the WalkSAT and
   annealer incumbents under the job's seed, the exact search without
   seeding, and the optimality certificate of its answer.  Linear search
   must find the job's optimum; core-guided search, given
   [core_guided_budget_s], must find it too or stop with a sound gap
   around it (it often cannot finish on these instances). *)
let core_guided_budget_s = 1.0

let replay tr tally inst ~cost =
  let seed = Service.Job.attempt_seed inst.spec 0 in
  let w = inst.wcnf in
  ignore
    (Harness.span tr "optimize.walksat" (fun _ ->
         Hyqsat.Optimize.incumbent (Stats.Rng.create ~seed) w));
  ignore
    (Harness.span tr "optimize.anneal_seed" (fun _ ->
         Hyqsat.Optimize.anneal_incumbent (Stats.Rng.create ~seed)
           Hyqsat.Hybrid_solver.default_config.Hyqsat.Hybrid_solver.graph w));
  let exact =
    Harness.span tr "optimize.exact" (fun _ -> Hyqsat.Optimize.solve ~max_flips:0 w)
  in
  Harness.bump tr "optimize.cdcl_calls" ~by:(float_of_int exact.Hyqsat.Optimize.cdcl_calls);
  Harness.bump tr "optimize.cores" ~by:(float_of_int exact.Hyqsat.Optimize.cores);
  let certified =
    Harness.span tr "check.certify_opt" (fun _ ->
        Check.Certify.certify_opt ~original:w exact)
  in
  Harness.require tally (inst.name ^ ": direct certify_opt")
    (match certified with Ok (Check.Certify.Optimality_verified _) -> true | _ -> false);
  let crosscheck ?timeout_s algorithm =
    Harness.span tr "crosscheck" (fun _ ->
        Hyqsat.Optimize.solve ~algorithm ?timeout_s ~max_flips:0 w)
  in
  let linear = crosscheck Hyqsat.Optimize.Linear in
  Harness.require tally
    (Printf.sprintf "%s: linear optimum %d, job %d" inst.name linear.Hyqsat.Optimize.best_cost cost)
    (linear.Hyqsat.Optimize.best_cost = cost && linear.Hyqsat.Optimize.lower_bound = cost);
  let core = crosscheck ~timeout_s:core_guided_budget_s Hyqsat.Optimize.Core_guided in
  let open Hyqsat.Optimize in
  Harness.require tally
    (Printf.sprintf "%s: core-guided [%d, %d] (%s), job %d" inst.name core.lower_bound
       core.best_cost
       (match core.status with Optimal -> "optimal" | _ -> "unfinished")
       cost)
    (match core.status with
    | Optimal -> core.best_cost = cost && core.lower_bound = cost
    | _ -> core.lower_bound <= cost && cost <= core.best_cost)

let traced ~seed ~trace_path =
  let tally = Harness.tally () in
  let insts = setup ~first_only:true ~seed () in
  let untraced_s =
    List.fold_left (fun acc inst -> acc +. snd (Harness.time (fun () -> run_job inst))) 0. insts
  in
  let tr = Harness.tracer () in
  List.iter
    (fun inst ->
      let r = Harness.span tr "job" ~attrs:[ ("instance", inst.name) ] (fun _ -> run_job inst) in
      Harness.record tally inst.name (verdict inst r);
      replay tr tally inst ~cost:r.Service.Batch.record.Service.Telemetry.cost)
    insts;
  Harness.write_trace tr trace_path;
  let traced_s = Harness.busy tr "job" in
  let layers =
    List.map
      (fun n -> (n ^ "_ms", Harness.busy tr n))
      [ "optimize.walksat"; "optimize.anneal_seed"; "optimize.exact"; "check.certify_opt" ]
  in
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. layers in
  Harness.print_shares ~workload:"job" ~wall_s:traced_s layers;
  let ms s = 1000. *. s in
  ( tally,
    List.map (fun (n, s) -> (n, ms s)) layers
    @ [
        ("optimize.cdcl_calls", Harness.count tr "optimize.cdcl_calls");
        ("optimize.cores", Harness.count tr "optimize.cores");
        ("unaccounted_ms", ms (traced_s -. covered));
        ("trace.wall_ms", ms traced_s);
        ("trace.overhead_ms", ms (traced_s -. untraced_s));
      ] )
