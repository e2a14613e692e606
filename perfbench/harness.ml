(* What every workload shares: the clock, the operation tally, the
   set-up and pass loops, peak memory, the benchmark's own trace, and the
   result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- operations ---- *)

(* An operation's result, or the exception that ended it. *)
let attempt f = match f () with r -> Ok r | exception e -> Error e

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** failed and wrong operations, newest first *)
  mutable wrong : int;
}

let tally () = { attempted = 0; failed = 0; notes = []; wrong = 0 }

let note t line = if List.length t.notes < 20 then t.notes <- line :: t.notes

(* Record one operation's verdict; [what] names it in the notes. *)
let record t what (v : Oracle.verdict) =
  t.attempted <- t.attempted + 1;
  match v with
  | Oracle.Pass -> ()
  | Oracle.Failed why ->
      t.failed <- t.failed + 1;
      note t (Printf.sprintf "failed %s: %s" what why)
  | Oracle.Wrong why ->
      t.wrong <- t.wrong + 1;
      note t (Printf.sprintf "wrong %s: %s" what why)

(* A check outside any counted operation (the traced pass's cross-checks). *)
let require t what ok =
  if not ok then begin
    t.wrong <- t.wrong + 1;
    note t ("wrong " ^ what)
  end

(* ---- time at the reference speed ---- *)

(* The benchmark runs on shared machines whose speed drifts: the same
   work runs up to 30% faster or slower from one stretch of seconds to the
   next, and that drift, not the program, set most of the run-to-run
   spread of plain wall times.  So every timed segment (one operation, one
   pass of daemon jobs, one set-up) runs between two [Refspeed] probes,
   and its wall time is scaled by [Refspeed.nominal_s] over the mean of
   the two: the time it would have taken on a machine where the probe
   takes [nominal_s].  The probes are not part of any segment.  Operation
   latencies are scaled by the run's factor (scaled over wall time of all
   segments): one segment's factor carries its probes' noise, which a
   median of a few dozen latencies would keep. *)

type timing = {
  probe : unit -> float;
  mutable last_probe : float;
  mutable probes : float list;
  mutable wall_lats : float list;  (** per-operation latencies *)
  mutable busy : float;  (** scaled time of all segments *)
  mutable wall_busy : float;
}

(* [probe] is [Refspeed.probe] for a program of one domain, pinned to
   [Refspeed.work_cpu] from the start of the run. *)
let timing ?(probe = Refspeed.probe) () =
  let p = probe () in
  { probe; last_probe = p; probes = [ p ]; wall_lats = []; busy = 0.; wall_busy = 0. }

(* Run [f] as one segment; returns its result, its wall time and the
   factor that scales its wall times to the reference speed. *)
let segment t f =
  let before = t.last_probe in
  let r, dt = time f in
  let after = t.probe () in
  t.last_probe <- after;
  t.probes <- after :: t.probes;
  let factor = 2. *. Refspeed.nominal_s /. (before +. after) in
  t.busy <- t.busy +. (dt *. factor);
  t.wall_busy <- t.wall_busy +. dt;
  (r, dt, factor)

(* Record operation latencies (wall seconds) measured in a segment. *)
let add_latencies t lats = t.wall_lats <- List.rev_append lats t.wall_lats

(* Time one operation as its own segment. *)
let op t f =
  let r, dt, _ = segment t f in
  add_latencies t [ dt ];
  r

(* ---- loops ---- *)

(* Set up [n] times and keep the last state; set-up time is the median,
   at the reference speed. *)
let setup_median ?probe ?(n = 3) ?(discard = fun _ -> ()) setup =
  let t = timing ?probe () in
  let rec go k times =
    let st, dt, factor = segment t setup in
    let times = (dt *. factor) :: times in
    if k = 1 then (st, Pct.median times)
    else begin
      discard st;
      go (k - 1) times
    end
  in
  go n []

(* Whole passes over the same operations until the run length is
   reached, rounded to the nearest whole pass (at least one); returns the
   number of passes. *)
let timed_passes ~seconds pass =
  let t0 = now () in
  let rec go passes =
    let elapsed = now () -. t0 in
    let per_pass = if passes = 0 then 0. else elapsed /. float_of_int passes in
    if passes > 0 && elapsed +. (per_pass /. 2.) > seconds then passes
    else begin
      pass ();
      go (passes + 1)
    end
  in
  go 0

(* ---- memory ---- *)

(* Peak resident set (VmHWM) of [pid], or of this process, in MB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] ->
            Scanf.sscanf (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
      in
      find ())

(* ---- the benchmark's own trace ---- *)

(* Spans recorded from this directory's code around calls into each
   layer, kept in memory and written once as JSONL when the pass ends.
   [busy] sums each span name's duration: the per-layer timers. *)
type tracer = {
  ctx : Obs.Ctx.t;
  buf : Buffer.t;
  busy : (string, float) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let tracer () =
  let ctx = Obs.Ctx.create () in
  let buf = Buffer.create 65536 in
  Obs.Ctx.attach ctx (Obs.Export.jsonl ~write:(Buffer.add_string buf) ());
  { ctx; buf; busy = Hashtbl.create 32; counts = Hashtbl.create 32 }

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
let busy tr name = Option.value ~default:0. (Hashtbl.find_opt tr.busy name)
let count tr name = Option.value ~default:0. (Hashtbl.find_opt tr.counts name)
let bump tr ?(by = 1.) name = add tr.counts name by

(* Time [f] as span [name] and add its duration to the [name] timer. *)
let span tr ?parent ?(attrs = []) name f =
  let sp = Obs.Span.start tr.ctx ?parent ~attrs name in
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      add tr.busy name (now () -. t0);
      Obs.Span.stop sp)
    (fun () -> f sp)

(* Record a duration measured elsewhere (inside a callback) as a span. *)
let record_span tr ?parent name dur_s =
  add tr.busy name dur_s;
  Obs.Span.record tr.ctx ?parent ~dur_s name

let write_trace tr path =
  Obs.Ctx.close tr.ctx;
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> Buffer.output_buffer oc tr.buf)

(* A program counter from an [Obs.Ctx] the program reported into. *)
let counter ctx name =
  match List.assoc_opt name (Obs.Ctx.snapshot ctx) with
  | Some (Obs.Ctx.Counter { count }) -> count
  | _ -> 0.

(* ---- results ---- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* The end-to-end metrics of a timed run, all times at the reference
   speed.  Also prints the same figures in plain wall time, and the
   probes, on a line of their own. *)
let end_to_end ~setup_s (t : timing) ~peak_mb =
  let ops = float_of_int (List.length t.wall_lats) in
  let factor = t.busy /. t.wall_busy in
  Printf.printf
    "wall time, unscaled: %.0f operations, %.4f solves/s, median latency %.3f ms; speed probe \
     median %.3f ms (nominal %.3f ms)\n"
    ops (ops /. t.wall_busy)
    (1000. *. Pct.median t.wall_lats)
    (1000. *. Pct.median t.probes)
    (1000. *. Refspeed.nominal_s);
  [
    m "setup_s" "s" setup_s;
    m "solves_per_s" "1/s" (ops /. t.busy);
    m "latency_p50_ms" "ms" (1000. *. factor *. Pct.median t.wall_lats);
    m "peak_mem_mb" "MB" peak_mb;
  ]

(* Print each partition layer's share of the traced wall. *)
let print_shares ~workload ~wall_s layers =
  Printf.printf "traced wall of %s: %.1f ms\n" workload (wall_s *. 1000.);
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-24s %10.1f ms  %5.1f%%\n" name (s *. 1000.) (100. *. s /. wall_s))
    layers

(* The result line: the last line of standard output. *)
let result_line (t : tally) metrics =
  let open Service.Telemetry in
  json_to_string
    (Obj
       [
         ("correct", Bool (t.wrong = 0));
         ("attempted", Int t.attempted);
         ("failed", Int t.failed);
         ( "metrics",
           Obj
             (List.map
                (fun mt -> (mt.name, Obj [ ("value", Num mt.value); ("unit", Str mt.unit_) ]))
                metrics) );
       ])
