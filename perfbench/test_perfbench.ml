(* Tests of the benchmark's own code: the answer evaluators and the
   percentile helper. *)

open Hqbench

let clause lits = Sat.Clause.of_dimacs lits

(* x1 ∧ ¬x2 ∧ x3 ∧ (x1 ∨ x2): exactly one model, so every one-bit flip
   of it must be caught *)
let pinned = Sat.Cnf.make ~num_vars:3 [ clause [ 1 ]; clause [ -2 ]; clause [ 3 ]; clause [ 1; 2 ] ]

let flip m v =
  let m = Array.copy m in
  m.(v) <- not m.(v);
  m

let test_flip_caught () =
  let m = [| true; false; true |] in
  Alcotest.(check (option int)) "model satisfies" None (Oracle.falsified pinned m);
  for v = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "flip of x%d caught" (v + 1))
      true
      (Oracle.check_answer ~expect:Oracle.Expect_sat pinned (Sat.Answer.Sat (flip m v))
      <> Oracle.Pass)
  done

(* on a solved random instance the evaluator agrees with the program's
   model checker for the model and each of its one-bit flips *)
let test_agrees_on_flips () =
  let f = Workload.Uniform.uf (Stats.Rng.create ~seed:5) 40 in
  match Cdcl.Solver.solve (Cdcl.Solver.create f) with
  | Cdcl.Solver.Sat m ->
      Alcotest.(check (option int)) "solver model" None (Oracle.falsified f m);
      let caught = ref 0 in
      for v = 0 to Array.length m - 1 do
        let m' = flip m v in
        let ours = Oracle.falsified f m' = None in
        let theirs = Check.Certify.check_model ~original:f m' = Ok () in
        Alcotest.(check bool) (Printf.sprintf "flip x%d" (v + 1)) theirs ours;
        if not ours then incr caught
      done;
      Alcotest.(check bool) "some flip is caught" true (!caught > 0)
  | _ -> Alcotest.fail "planted instance not solved"

let test_weighted_cost () =
  let w =
    Sat.Wcnf.make ~num_vars:3
      ~hard:[ clause [ 1; 2 ] ]
      ~soft:[ (3, clause [ 1 ]); (5, clause [ -2 ]); (2, clause [ 3 ]) ]
  in
  let cost m = Oracle.weighted_cost w m in
  Alcotest.(check int) "all softs falsified" 10 (cost [| false; true; false |]).Oracle.cost;
  Alcotest.(check bool) "hard holds" true (cost [| false; true; false |]).Oracle.hard_ok;
  Alcotest.(check int) "no soft falsified" 0 (cost [| true; false; true |]).Oracle.cost;
  Alcotest.(check int) "one soft falsified" 5 (cost [| true; true; true |]).Oracle.cost;
  Alcotest.(check bool) "hard violated" false (cost [| false; false; true |]).Oracle.hard_ok

let floats n = List.init n float_of_int

let test_median () =
  Alcotest.(check (float 1e-12)) "even count" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-12)) "odd count" 2. (Pct.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "p90 of 0..10" 9. (Pct.quantile (floats 11) 0.9)

let test_no_short_tail () =
  let some = Alcotest.(check bool) in
  some "p99 of 999 samples: nine beyond" true (Pct.tail ~per_mille:990 (floats 999) = None);
  some "p99 of 1000 samples: ten beyond" true (Pct.tail ~per_mille:990 (floats 1000) <> None);
  some "p50 of 19 samples: nine beyond" true (Pct.tail ~per_mille:500 (floats 19) = None);
  some "p50 of 20 samples: ten beyond" true (Pct.tail ~per_mille:500 (floats 20) <> None);
  Alcotest.(check int) "beyond p99 of 2000" 20 (Pct.beyond ~per_mille:990 2000)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench.oracle",
        [
          Alcotest.test_case "one-bit flip caught" `Quick test_flip_caught;
          Alcotest.test_case "agrees with the model checker on flips" `Quick test_agrees_on_flips;
          Alcotest.test_case "hand-built weighted cost" `Quick test_weighted_cost;
        ] );
      ( "perfbench.pct",
        [
          Alcotest.test_case "median and quantile" `Quick test_median;
          Alcotest.test_case "no tail with fewer than ten beyond" `Quick test_no_short_tail;
        ] );
    ]
