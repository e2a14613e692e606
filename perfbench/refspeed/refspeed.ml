(* A fixed CPU task, run between timed operations, that measures how
   fast the machine runs right now.  It allocates nothing, so the
   program's heap cannot slow it: only the machine can.  The task hashes
   a fixed set of pseudo-random keys into an open-addressed table, looks
   each up again, and heap-sorts a copy of them: integer arithmetic,
   branches and scattered loads over about 1.5 MB, the mix a SAT solver's
   inner loops make. *)

let size = 1 lsl 15

let keys =
  let a = Array.make size 0 in
  let x = ref 0x2545F4914F6CDD1D in
  for i = 0 to size - 1 do
    (* xorshift64, kept within OCaml's 63-bit ints and never 0 *)
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    a.(i) <- (!x land max_int) lor 1
  done;
  a

let table = Array.make (4 * size) 0
let sorted = Array.make size 0

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let t = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- t;
      sift a c n
    end
  end

let heap_sort a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift a 0 last
  done

let mask = Array.length table - 1

let rec slot k i = if table.(i) = 0 || table.(i) = k then i else slot k ((i + 1) land mask)

(* The task; returns a checksum so that none of it is
   optimised away. *)
let round () =
  Array.fill table 0 (Array.length table) 0;
  for i = 0 to size - 1 do
    let k = keys.(i) in
    table.(slot k ((k * 0x9E3779B1) land mask)) <- k
  done;
  let found = ref 0 in
  for i = size - 1 downto 0 do
    let k = keys.(i) in
    if table.(slot k ((k * 0x9E3779B1) land mask)) = k then incr found
  done;
  Array.blit keys 0 sorted 0 size;
  heap_sort sorted;
  !found + sorted.(size / 2)

let checksum = ref 0

(* ---- where the probe runs ---- *)

(* Each CPU of a shared machine has its own neighbours, so the probe must
   run where the program under test runs.  A program of one domain is
   pinned to [work_cpu], the lowest CPU this process may use, and probed
   there ([probe]); a program that spreads over the CPUs is left on all of
   them and probed on each in turn ([probe_each]).  Pinning is skipped
   where the system refuses it, and covers CPUs 0 to 61. *)

external cpu_allowed : int -> bool = "refspeed_cpu_allowed"
external set_cpus : int -> int -> bool = "refspeed_set_cpus"

let allowed = List.filter cpu_allowed (List.init 62 Fun.id)
let work_cpu = match allowed with c :: _ -> c | [] -> 0
let all_mask = List.fold_left (fun m c -> m lor (1 lsl c)) 0 allowed

(* The CPUs this process is on: one, or [None] for all allowed. *)
let home = ref None

let place ~pid cpu =
  let mask = match cpu with Some c -> 1 lsl c | None -> all_mask in
  if set_cpus pid mask && pid = 0 then home := cpu

(* Pin process [pid] (0: this one) to [cpu]. *)
let pin ?(pid = 0) cpu = place ~pid (Some cpu)

(* Let process [pid] run on every allowed CPU again. *)
let unpin ?(pid = 0) () = place ~pid None

let run_once () =
  let t0 = Unix.gettimeofday () in
  checksum := !checksum + round ();
  Unix.gettimeofday () -. t0

let median_of_three () =
  let a = run_once () in
  let b = run_once () in
  let c = run_once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* Seconds the task takes now on [cpu]: the median of three runs, since
   one run alone moves by 10% or more from the next. *)
let probe_on cpu =
  let back = !home in
  if back <> Some cpu then pin cpu;
  let t = median_of_three () in
  if back <> Some cpu then place ~pid:0 back;
  t

let probe () = probe_on work_cpu

(* The mean over the allowed CPUs of [probe_on]. *)
let probe_each () =
  match allowed with
  | [] -> median_of_three ()
  | cpus -> List.fold_left (fun acc c -> acc +. probe_on c) 0. cpus /. float_of_int (List.length cpus)

(* What the task takes on the machine the benchmark's times are scaled
   to: about its median on the 2-core shared VM of the README's figures. *)
let nominal_s = 0.020
