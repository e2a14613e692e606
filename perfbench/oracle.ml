(* Answer checks made apart from the program: a clause evaluator, a
   weighted-cost evaluator, and each family's answer by construction.
   None of this goes through [Check.Certify] or [Sat.Wcnf.cost]. *)

let lit_true model l =
  let v = Sat.Lit.var l in
  v < Array.length model && model.(v) = Sat.Lit.is_pos l

let clause_true model c = Array.exists (lit_true model) (Sat.Clause.to_array c)

(* [None] when [model] satisfies every clause of [f], else the index of the
   first clause it falsifies. *)
let falsified f model =
  Sat.Cnf.fold_clauses
    (fun acc i c ->
      match acc with None when not (clause_true model c) -> Some i | _ -> acc)
    None f

type weighted = { hard_ok : bool; cost : int }

let weighted_cost (w : Sat.Wcnf.t) model =
  {
    hard_ok = Array.for_all (clause_true model) w.Sat.Wcnf.hard;
    cost =
      Array.fold_left
        (fun acc (s : Sat.Wcnf.soft) ->
          if clause_true model s.Sat.Wcnf.clause then acc else acc + s.Sat.Wcnf.weight)
        0 w.Sat.Wcnf.soft;
  }

(* Planted colourings, assignments, plans, DNFs and factors are
   satisfiable; a stuck-at fault behind an x∧¬x guard and two equivalent
   adders under a miter are not. *)
type expect = Expect_sat | Expect_unsat

let expected_of_family = function
  | "CFA" | "CRY" -> Expect_unsat
  | "GC1" | "GC2" | "GC3" | "BP" | "II" | "IF1" | "IF2" | "AI1" | "AI2" | "AI3" | "AI4"
  | "AI5" ->
      Expect_sat
  | id -> invalid_arg ("Oracle.expected_of_family: " ^ id)

(* How one operation ended: [Failed] when the program gave no answer
   (unknown, error), [Wrong] when its answer contradicts the checks. *)
type verdict = Pass | Failed of string | Wrong of string

let check_answer ~expect f (answer : Sat.Answer.t) =
  match (expect, answer) with
  | Expect_sat, Sat.Answer.Sat m -> (
      match falsified f m with
      | None -> Pass
      | Some i -> Wrong (Printf.sprintf "model falsifies clause %d" i))
  | Expect_unsat, Sat.Answer.Unsat -> Pass
  | Expect_sat, Sat.Answer.Unsat -> Wrong "unsat on a satisfiable-by-construction instance"
  | Expect_unsat, Sat.Answer.Sat _ -> Wrong "sat on an unsatisfiable-by-construction instance"
  | _, (Sat.Answer.Unknown _ as a) -> Failed (Sat.Answer.label a)
