(* hybrid-table1: the Table I families at [`Small] scale through
   [Hyqsat.Solve.run (Hybrid default_config)], one solve per operation —
   the paper's protocol, a noise-free annealer and one read per QA call.
   CFA is left out: about one CFA instance in eighty makes the solve raise
   [Anneal.Machine.Unembedded_term] (an embedded edge with no coupler). *)

module H = Hyqsat.Hybrid_solver

let config = H.default_config

(* instances per family in a pass; the traced pass solves the first *)
let per_family = 4

type instance = { name : string; formula : Sat.Cnf.t; expect : Oracle.expect }

let instances ~seed =
  let rng = Stats.Rng.create ~seed in
  List.concat_map
    (fun (spec : Workload.Spec.t) ->
      List.init per_family (fun k ->
          {
            name = Printf.sprintf "%s-%d" spec.Workload.Spec.id k;
            formula = spec.Workload.Spec.generate rng `Small;
            expect = Oracle.expected_of_family spec.Workload.Spec.id;
          }))
    (List.filter (fun s -> s.Workload.Spec.id <> "CFA") Workload.Spec.table1)

let solve ?obs config f = Hyqsat.Solve.run ?obs (H.Hybrid config) f

let check tally inst = function
  | Ok (r : H.report) ->
      Harness.record tally inst.name (Oracle.check_answer ~expect:inst.expect inst.formula r.H.result)
  | Error e -> Harness.record tally inst.name (Oracle.Failed (Printexc.to_string e))

(* Generate the inputs and make one untimed solve (of the first AI1
   instance, whose QA call count is set by its size alone).
   [first_only] keeps the first instance of each family. *)
let setup ?(first_only = false) ~seed () =
  let insts = instances ~seed in
  let insts =
    if first_only then List.filter (fun i -> String.ends_with ~suffix:"-0" i.name) insts else insts
  in
  ignore (solve config (List.find (fun i -> i.name = "AI1-0") insts).formula);
  insts

(* One pass: every instance solved once, each answer checked. *)
let pass tally timing insts () =
  List.iter
    (fun inst ->
      let r = Harness.op timing (fun () -> Harness.attempt (fun () -> solve config inst.formula)) in
      check tally inst r)
    insts

let timed ~seed ~seconds =
  let tally = Harness.tally () in
  let insts, setup_s = Harness.setup_median (setup ~seed) in
  let timing = Harness.timing () in
  ignore (Harness.timed_passes ~seconds (pass tally timing insts));
  (tally, Harness.end_to_end ~setup_s timing ~peak_mb:(Harness.peak_rss_mb ()))

(* ---- traced pass ---- *)

(* [best_of] behind a stopwatch: every device call the real solve makes is
   timed as an [anneal.device] span under [parent], with its spin updates
   (reads × sweeps × physical spins) counted. *)
let timed_device tr ~span_name ~parent =
  Anneal.Backend.of_fn ~name:"best_of"
    ~capabilities:(Anneal.Backend.capabilities Anneal.Backend.best_of)
    (fun ?obs rng req ->
      let r, dt = Harness.time (fun () -> Anneal.Backend.sample ?obs Anneal.Backend.best_of rng req) in
      Harness.record_span tr ~parent span_name dt;
      let p = req.Anneal.Backend.params in
      Harness.bump tr (span_name ^ ".calls");
      Harness.bump tr (span_name ^ ".spin_updates")
        ~by:
          (float_of_int
             (p.Anneal.Sampler.reads * p.Anneal.Sampler.schedule.Anneal.Sampler.sweeps
            * req.Anneal.Backend.ising.Anneal.Sparse_ising.n));
      r)

(* [Frontend.prepare] called directly, as many times as the solve's
   warm-up called it, with one CDCL step between calls so the activity
   ranking moves as it does in the solve. *)
let replay_frontend tr inst ~calls =
  let solver = Cdcl.Solver.create ~config:(Cdcl.Config.with_paper_stats config.H.cdcl) inst.formula in
  let cache = Hyqsat.Frontend.create_cache config.H.graph in
  let rng = Stats.Rng.create ~seed:config.H.seed in
  let jobs = ref [] in
  for _ = 1 to calls do
    (match
       Harness.span tr "frontend" (fun _ ->
           Hyqsat.Frontend.prepare ~cache ~queue_mode:config.H.queue_mode
             ~adjust:config.H.adjust_coefficients rng config.H.graph inst.formula
             ~activity:(Cdcl.Solver.clause_activity solver))
     with
    | Some p ->
        Harness.record_span tr "frontend.embed" p.Hyqsat.Frontend.embed_time_s;
        jobs := p.Hyqsat.Frontend.job :: !jobs
    | None -> ());
    ignore (Cdcl.Solver.step solver)
  done;
  List.rev !jobs

(* [Machine.run_via] called directly on the replayed jobs, with and
   without the host-side postprocess; its device calls are timed apart. *)
let replay_machine tr jobs =
  let run ~postprocess name =
    let rng = Stats.Rng.create ~seed:config.H.seed in
    List.iter
      (fun job ->
        Harness.span tr name (fun sp ->
            let dev = timed_device tr ~span_name:(name ^ ".device") ~parent:sp in
            match
              Anneal.Machine.run_via ~postprocess ~noise:config.H.noise ~timing:config.H.timing
                ~reads:config.H.qa_reads ~domains:config.H.qa_domains
                ~sample:(fun rng req -> Anneal.Backend.sample dev rng req)
                rng job
            with
            | Ok o -> if postprocess then Harness.bump tr "machine.chain_breaks" ~by:(float_of_int o.Anneal.Machine.chain_breaks)
            | Error _ -> ()))
      jobs
  in
  run ~postprocess:true "machine";
  run ~postprocess:false "machine.nopp"

let traced ~seed ~trace_path =
  let tally = Harness.tally () in
  let insts = setup ~first_only:true ~seed () in
  let plain = List.map (fun inst -> Harness.time (fun () -> solve config inst.formula)) insts in
  List.iter2 (fun inst (r, _) -> check tally inst (Ok r)) insts plain;
  let untraced_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. plain in
  let tr = Harness.tracer () in
  let prog = Obs.Ctx.create () in
  let reports =
    List.map2
      (fun inst (r0, _) ->
        let r =
          Harness.span tr "solve" ~attrs:[ ("instance", inst.name) ] (fun sp ->
              let backend = timed_device tr ~span_name:"anneal.device" ~parent:sp in
              solve ~obs:prog (H.make_config ~base:config ~backend ()) inst.formula)
        in
        Harness.require tally
          (inst.name ^ ": the timed device changed the search")
          (r.H.iterations = r0.H.iterations && r.H.qa_time_us = r0.H.qa_time_us
          && Sat.Answer.label r.H.result = Sat.Answer.label r0.H.result);
        r)
      insts plain
  in
  let traced_s = Harness.busy tr "solve" in
  List.iter2
    (fun inst (r : H.report) ->
      let jobs = replay_frontend tr inst ~calls:(r.H.qa_calls + r.H.qa_degraded) in
      replay_machine tr jobs)
    insts reports;
  Harness.write_trace tr trace_path;
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. reports in
  let ms s = 1000. *. s in
  let hits = Harness.counter prog "embed_cache_hits_total"
  and misses = Harness.counter prog "embed_cache_misses_total" in
  let device_s = Harness.busy tr "anneal.device" in
  let host_s = Harness.busy tr "machine" -. Harness.busy tr "machine.device" in
  let host_nopp_s = Harness.busy tr "machine.nopp" -. Harness.busy tr "machine.nopp.device" in
  let frontend_s = Harness.busy tr "frontend" in
  let feedback_s = sum (fun r -> r.H.backend_time_s) in
  let cdcl_s = sum (fun r -> r.H.cdcl_time_s) in
  let stat f = sum (fun r -> float_of_int (f r.H.solver_stats)) in
  let props = stat (fun s -> s.Cdcl.Solver.propagations) in
  let uses k = sum (fun r -> float_of_int r.H.strategy_uses.(k)) in
  let layers =
    [
      ("frontend.busy_ms", frontend_s);
      ("anneal.device_busy_ms", device_s);
      ("machine.host_ms", host_s);
      ("feedback.busy_ms", feedback_s);
      ("cdcl.busy_ms", cdcl_s);
    ]
  in
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. layers in
  Harness.print_shares ~workload:"solve" ~wall_s:traced_s layers;
  ( tally,
    [
      ("frontend.calls", hits +. misses);
      ("frontend.busy_ms", ms frontend_s);
      ("frontend.embed_ms", ms (Harness.busy tr "frontend.embed"));
      ("frontend.embed_cache_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      ("anneal.device_calls", Harness.count tr "anneal.device.calls");
      ("anneal.device_busy_ms", ms device_s);
      ("anneal.spin_updates", Harness.count tr "anneal.device.spin_updates");
      ( "anneal.spin_updates_per_s",
        if device_s > 0. then Harness.count tr "anneal.device.spin_updates" /. device_s else 0. );
      ("anneal.qa_model_ms", sum (fun r -> r.H.qa_time_us) /. 1000.);
      ("machine.host_ms", ms host_s);
      ("machine.postprocess_ms", ms (host_s -. host_nopp_s));
      ("machine.chain_breaks", Harness.count tr "machine.chain_breaks");
      ("feedback.busy_ms", ms feedback_s);
      ("feedback.s1_uses", uses 0);
      ("feedback.s2_uses", uses 1);
      ("feedback.s3_uses", uses 2);
      ("feedback.s4_uses", uses 3);
      ("cdcl.busy_ms", ms cdcl_s);
      ("cdcl.iterations", sum (fun r -> float_of_int r.H.iterations));
      ("cdcl.conflicts", stat (fun s -> s.Cdcl.Solver.conflicts));
      ("cdcl.propagations", props);
      ("cdcl.props_per_s", if cdcl_s > 0. then props /. cdcl_s else 0.);
      ("unaccounted_ms", ms (traced_s -. covered));
      ("trace.wall_ms", ms traced_s);
      ("trace.overhead_ms", ms (traced_s -. untraced_s));
    ] )
