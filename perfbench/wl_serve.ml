(* serve-certified: a [hyqsat serve] daemon on a Unix socket, fed small
   certified jobs by this process in a closed loop, solved by the classic
   member.  Planted-SAT uniform instances are mixed with CFA and CRY
   instances that are unsatisfiable by construction. *)

(* Jobs outstanding on the connection: enough that the daemon's worker
   always has one queued, so the rate is set by solving rather than by
   how fast each process wakes up for the next hand-off. *)
let inflight = 4

let member = "minisat"

type instance = {
  name : string;
  formula : Sat.Cnf.t;
  expect : Oracle.expect;
  dimacs : string;
  job_seed : int;
}

(* A quarter planted-SAT uniform, half CFA, a quarter CRY.  A job's
   latency is its own solve plus those queued ahead of it, so the median
   falls among the CFA jobs rather than in the gap between the cheap
   uniform jobs and the dearer adder miters.  The jobs are sized to take
   milliseconds, so that solving rather than process wake-ups sets the
   latency.  A pass holds [quarter] × 4 distinct jobs: with two hundred,
   the cost of a pass moved by up to 13% from one seed to another. *)
let quarter = 200

let instances ~seed =
  let rng = Stats.Rng.create ~seed in
  let make i name expect formula =
    { name; formula; expect; dimacs = Sat.Dimacs.to_string formula; job_seed = 1000 + i }
  in
  List.concat
    [
      List.init quarter (fun k ->
          let n = 50 + (25 * (k mod 3)) in
          make k (Printf.sprintf "uf%d-%d" n k) Oracle.Expect_sat (Workload.Uniform.uf rng n));
      List.init (2 * quarter) (fun k ->
          make (quarter + k) (Printf.sprintf "cfa-%d" k) Oracle.Expect_unsat
            (Workload.Circuit_fault.generate rng ~inputs:8 ~gates:(80 + (10 * (k mod 4)))));
      List.init quarter (fun k ->
          make ((3 * quarter) + k) (Printf.sprintf "cry-%d" k) Oracle.Expect_unsat
            (Workload.Crypto.generate rng ~bits:(5 + (k mod 2))));
    ]
  |> Array.of_list

(* ---- the daemon process ---- *)

type daemon = { pid : int; sock : string; client : Server.Client.t }

let live : int list ref = ref []

let stop_process pid =
  if List.mem pid !live then begin
    live := List.filter (( <> ) pid) !live;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Harness.now () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Harness.now () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
      | _ -> ()
    in
    wait ()
  end

let () = at_exit (fun () -> List.iter stop_process !live)

let start ~cli ~out_dir ~seed =
  let sock = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  let log =
    Unix.openfile (Filename.concat out_dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let stdin_r, stdin_w = Unix.pipe () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "-s"; member; "--jobs"; "1"; "--seed"; string_of_int seed |]
      stdin_r log log
  in
  List.iter Unix.close [ stdin_r; stdin_w; log ];
  live := pid :: !live;
  (* the daemon spreads over the CPUs (its dispatcher and worker are two
     domains, which ran a fifth slower pinned together in a trial), so
     it and this client run on all of them, and the timed runs probe
     each CPU *)
  Refspeed.unpin ~pid ();
  Refspeed.unpin ();
  let deadline = Harness.now () +. 30. in
  let rec connect () =
    match Server.Client.connect_unix sock with
    | c -> c
    | exception Unix.Unix_error _ when Harness.now () < deadline ->
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
          live := List.filter (( <> ) pid) !live;
          failwith "hyqsat serve exited before listening"
        end;
        Unix.sleepf 0.002;
        connect ()
  in
  let client = connect () in
  Server.Client.handshake ~client:"perfbench" client;
  { pid; sock; client }

let stop d =
  (try
     Server.Client.send d.client Server.Protocol.Bye;
     Server.Client.close d.client
   with _ -> ());
  stop_process d.pid;
  if Sys.file_exists d.sock then Sys.remove d.sock

(* ---- jobs ---- *)

type answer = { outcome : string; verified : string; model : bool array option }

let next_id = ref 0

(* Closed loop: [inflight] jobs outstanding on one connection, the next
   sent as each result arrives.  Returns, per job in [order], the client's
   submit-to-result latency, the result record and the answer; [on_done]
   sees each latency as its result arrives. *)
let run_jobs ?(on_done = ignore) d insts order =
  let n = Array.length order in
  let sent_at = Hashtbl.create 16 in
  let out = Array.make n None in
  let send k =
    let inst = insts.(order.(k)) in
    let id = !next_id in
    incr next_id;
    Hashtbl.replace sent_at id (k, Harness.now ());
    Server.Client.send d.client
      (Server.Protocol.Submit
         (Server.Protocol.make_job_spec ~name:inst.name ~certify:true ~seed:inst.job_seed ~id
            inst.dimacs))
  in
  let next = ref 0 in
  while !next < min inflight n do
    send !next;
    incr next
  done;
  let pending = ref (min inflight n) in
  let complete id res =
    let k, t0 = Hashtbl.find sent_at id in
    Hashtbl.remove sent_at id;
    let dt = Harness.now () -. t0 in
    on_done dt;
    out.(k) <- Some (dt, res);
    decr pending;
    if !next < n then begin
      send !next;
      incr next;
      incr pending
    end
  in
  while !pending > 0 do
    match Server.Client.recv ~timeout_s:60. d.client with
    | Server.Protocol.Result { id; record; model } ->
        complete id
          (Ok
             ( record,
               {
                 outcome = record.Service.Telemetry.outcome;
                 verified = record.Service.Telemetry.verified;
                 model;
               } ))
    | Server.Protocol.Rejected { id; code; reason; _ } -> complete id (Error (code ^ ": " ^ reason))
    | _ -> ()
  done;
  Array.map Option.get out

(* The daemon's own spec construction, run in-process through
   [Batch.process]: the reference every daemon answer must equal. *)
let local_spec inst ~id =
  let formula, original =
    if Sat.Cnf.is_3sat inst.formula then (inst.formula, None)
    else (fst (Sat.Three_sat.convert inst.formula), Some inst.formula)
  in
  Service.Job.make ~name:inst.name ?original ~certify:true ~seed:inst.job_seed ~id formula

let members ~spec ~seed =
  Service.Batch.solo ~grid:16 ~log_proof:spec.Service.Job.certify member ~spec ~seed

let process_local inst =
  Service.Batch.process ~members ~obs:Obs.Ctx.null ~parent:Obs.Span.none (local_spec inst ~id:0)
    ~enqueued_at:(Harness.now ()) ()

let answer_of (r : Service.Batch.job_result) =
  {
    outcome = r.Service.Batch.record.Service.Telemetry.outcome;
    verified = r.Service.Batch.record.Service.Telemetry.verified;
    model = (match r.Service.Batch.outcome with Sat.Answer.Sat m -> Some m | _ -> None);
  }

let verdict inst ~reference = function
  | Error why -> Oracle.Failed ("rejected " ^ why)
  | Ok (_, a) -> (
      let answer =
        match (a.outcome, a.model) with
        | "sat", Some m -> Sat.Answer.Sat m
        | "unsat", None -> Sat.Answer.Unsat
        | "sat", None -> Sat.Answer.Unknown Sat.Answer.Cert_failed
        | _ -> Sat.Answer.Unknown Sat.Answer.Budget
      in
      match Oracle.check_answer ~expect:inst.expect inst.formula answer with
      | Oracle.Pass when a <> reference -> Oracle.Wrong "differs from the in-process Batch.process answer"
      | Oracle.Pass when a.verified <> (if a.outcome = "sat" then "model" else "proof") ->
          Oracle.Wrong ("certificate: " ^ a.verified)
      | Oracle.Failed _ when a.outcome = "sat" || a.outcome = "unsat" -> Oracle.Wrong "outcome and model disagree"
      | v -> v)

let check tally insts order results ~references =
  Array.iteri
    (fun k (_, res) ->
      let i = order.(k) in
      Harness.record tally insts.(i).name (verdict insts.(i) ~reference:references.(i) res))
    results

let latencies results = Array.to_list (Array.map fst results)

(* ---- runs ---- *)

let setup ~cli ~out_dir ~seed () =
  let insts = instances ~seed in
  let d = start ~cli ~out_dir ~seed in
  ignore (run_jobs d insts [| 0 |]);
  (insts, d)

let probe = Refspeed.probe_each

let setup_and_reference ~cli ~out_dir ~seed =
  let (insts, d), setup_s =
    (* a set-up is tens of milliseconds here: take the median of more *)
    Harness.setup_median ~probe ~n:11 ~discard:(fun (_, d) -> stop d) (setup ~cli ~out_dir ~seed)
  in
  let references = Array.map (fun inst -> answer_of (process_local inst)) insts in
  (insts, d, setup_s, references)

let one_pass insts = Array.init (Array.length insts) Fun.id

(* The daemon's resident memory grows with every job it serves, so its
   peak is read at a fixed amount of work, not at the end of the run. *)
let peak_after_jobs = 2400

(* Timed passes, each a segment of [timing]; returns the number of passes
   and the daemon's peak memory once [peak_after_jobs] jobs are done (or
   at the end, if fewer were). *)
let loop ~seconds tally timing d insts ~references =
  let order = one_pass insts in
  let done_jobs = ref 0 and peak = ref None in
  let passes =
    Harness.timed_passes ~seconds (fun () ->
        let results, _, _ = Harness.segment timing (fun () -> run_jobs d insts order) in
        Harness.add_latencies timing (latencies results);
        check tally insts order results ~references;
        done_jobs := !done_jobs + Array.length results;
        if !peak = None && !done_jobs >= peak_after_jobs then
          peak := Some (Harness.peak_rss_mb ~pid:d.pid ()))
  in
  let peak = match !peak with Some p -> p | None -> Harness.peak_rss_mb ~pid:d.pid () in
  (passes, peak)

let timed ~cli ~out_dir ~seed ~seconds =
  let tally = Harness.tally () in
  let insts, d, setup_s, references = setup_and_reference ~cli ~out_dir ~seed in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let timing = Harness.timing ~probe () in
      let _, peak_mb = loop ~seconds tally timing d insts ~references in
      (tally, Harness.end_to_end ~setup_s timing ~peak_mb))

(* ---- traced pass ---- *)

(* Each layer under the daemon called directly on the same inputs: the
   batch pipeline, one-shot CDCL with proof logging, certification of its
   answers, and the wire codec on the pass's own frames. *)
let replay tr insts (records : (Service.Telemetry.record * answer) array) =
  Array.iter
    (fun inst ->
      Harness.span tr "service.solve" (fun _ -> ignore (process_local inst));
      let spec = local_spec inst ~id:0 in
      let config =
        Cdcl.Config.with_proof_logging
          (Cdcl.Config.with_seed (inst.job_seed + 2) Cdcl.Config.minisat_like)
      in
      let solver = Cdcl.Solver.create ~config spec.Service.Job.formula in
      let result = Harness.span tr "cdcl.solve" (fun _ -> Cdcl.Solver.solve solver) in
      let st = Cdcl.Solver.stats solver in
      Harness.bump tr "cdcl.conflicts" ~by:(float_of_int st.Cdcl.Solver.conflicts);
      Harness.bump tr "cdcl.propagations" ~by:(float_of_int st.Cdcl.Solver.propagations);
      Harness.bump tr "cdcl.iterations" ~by:(float_of_int st.Cdcl.Solver.iterations);
      ignore
        (Harness.span tr "check.certify" (fun _ ->
             Check.Certify.certify ~original:(Service.Job.original_formula spec)
               ~solved:spec.Service.Job.formula ?proof:(Cdcl.Solver.proof solver) result)))
    insts;
  Harness.span tr "server.codec" (fun _ ->
      Array.iteri
        (fun k (record, a) ->
          let inst = insts.(k) in
          let submit =
            Server.Protocol.encode_client
              (Server.Protocol.Submit
                 (Server.Protocol.make_job_spec ~name:inst.name ~certify:true ~seed:inst.job_seed
                    ~id:k inst.dimacs))
          in
          let result =
            Server.Protocol.encode_server (Server.Protocol.Result { id = k; record; model = a.model })
          in
          List.iter
            (fun payload ->
              let dec = Server.Codec.decoder () in
              Server.Codec.feed_string dec (Server.Codec.frame payload);
              ignore (Server.Codec.next dec))
            [ submit; result ];
          ignore (Server.Protocol.decode_client submit);
          ignore (Server.Protocol.decode_server result))
        records)

(* Passes through the daemon in the traced part. *)
let traced_passes = 2

let traced ~cli ~out_dir ~seed ~seconds ~trace_path =
  let tally = Harness.tally () in
  let insts, d, _, references = setup_and_reference ~cli ~out_dir ~seed in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let timing = Harness.timing ~probe () in
      let passes, _ = loop ~seconds tally timing d insts ~references in
      let untraced_s =
        float_of_int traced_passes *. timing.Harness.wall_busy /. float_of_int passes
      in
      let tr = Harness.tracer () in
      let order = one_pass insts in
      let queue_wait = ref 0. and on_wire = ref [] in
      for _ = 1 to traced_passes do
        let results =
          Harness.span tr "pass" (fun sp ->
              run_jobs d insts order ~on_done:(Harness.record_span tr ~parent:sp "wire.job"))
        in
        check tally insts order results ~references;
        let records =
          Array.map (function _, Ok ra -> ra | _, Error why -> failwith ("rejected " ^ why)) results
        in
        Array.iter2
          (fun (dt, _) (r, _) ->
            let open Service.Telemetry in
            queue_wait := !queue_wait +. r.queue_wait_s;
            on_wire := (dt -. r.queue_wait_s -. r.solve_time_s) :: !on_wire)
          results records;
        replay tr insts records
      done;
      Harness.write_trace tr trace_path;
      let traced_s = Harness.busy tr "pass" in
      let ms s = 1000. *. s in
      let layers =
        [
          ("service.solve_ms", Harness.busy tr "service.solve");
          ("server.codec_ms", Harness.busy tr "server.codec");
        ]
      in
      let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. layers in
      Harness.print_shares ~workload:"pass" ~wall_s:traced_s layers;
      let cdcl_s = Harness.busy tr "cdcl.solve" in
      let props = Harness.count tr "cdcl.propagations" in
      ( tally,
        [
          ("cdcl.busy_ms", ms cdcl_s);
          ("cdcl.iterations", Harness.count tr "cdcl.iterations");
          ("cdcl.conflicts", Harness.count tr "cdcl.conflicts");
          ("cdcl.propagations", props);
          ("cdcl.props_per_s", if cdcl_s > 0. then props /. cdcl_s else 0.);
          ("check.certify_ms", ms (Harness.busy tr "check.certify"));
          ("service.solve_ms", ms (Harness.busy tr "service.solve"));
          ("server.codec_ms", ms (Harness.busy tr "server.codec"));
          ("server.queue_wait_ms", ms !queue_wait);
          ("server.wire_overhead_ms", ms (Pct.median !on_wire));
          ( "server.latency_p99_ms",
            match Pct.tail ~per_mille:990 timing.Harness.wall_lats with
            | Some v -> ms v
            | None -> 0. );
          ("unaccounted_ms", ms (traced_s -. covered));
          ("trace.wall_ms", ms traced_s);
          ("trace.overhead_ms", ms (traced_s -. untraced_s));
        ] ))
