type t = {
  bb : Bitblast.t;
  mutable retractables : Lit.t list; (* active retractable activation lits *)
}

type answer =
  | Sat
  | Unsat
  | Unknown of Sat.reason

type retractable = Lit.t

let create () = { bb = Bitblast.create (); retractables = [] }
let sat t = Tseitin.solver (Bitblast.context t.bb)
let assert_formula t f = Bitblast.assert_formula t.bb f

let push t = Tseitin.push (Bitblast.context t.bb)
let push_named t name = Tseitin.push_named (Bitblast.context t.bb) name
let pop t = Tseitin.pop (Bitblast.context t.bb)

let assert_retractable t f =
  let ctx = Bitblast.context t.bb in
  let a = Tseitin.fresh ctx in
  Bitblast.assert_clauses t.bb f ~emit:(fun c ->
      Sat.add_clause_permanent (sat t) (Lit.neg a :: c));
  t.retractables <- a :: t.retractables;
  a

let assert_named t name f =
  let a = assert_retractable t f in
  Sat.set_name (sat t) (Lit.var a) name;
  a

let retract t a =
  if not (List.memq a t.retractables) then
    invalid_arg "Solver.retract: not an active retractable assertion";
  t.retractables <- List.filter (fun x -> x <> a) t.retractables;
  (* permanently satisfies every clause it guards *)
  Sat.add_clause_permanent (sat t) [ Lit.neg a ]

let check t =
  Obs.with_span "smt.check"
    ~attrs:[ ("retractables", Obs.Int (List.length t.retractables)) ]
    (fun () ->
      match Sat.solve_with_assumptions (sat t) t.retractables with
      | Sat.Sat -> Sat
      | Sat.Unsat -> Unsat
      | Sat.Unknown reason -> Unknown reason)

let unsat_core t = Sat.core_names (sat t)
let unsat_core_lits t = Sat.unsat_core (sat t)

let value t name = Option.value (Bitblast.value_of t.bb name) ~default:0

let bool_value t name =
  Option.value (Bitblast.bool_value_of t.bb name) ~default:false

let model_env t = Bitblast.model_env t.bb

let set_limits t l = Sat.set_limits (sat t) l
let clear_limits t = Sat.clear_limits (sat t)

let check_formulas ?limits fs =
  let t = create () in
  Option.iter (set_limits t) limits;
  List.iter (assert_formula t) fs;
  match check t with
  | Sat -> `Sat (model_env t)
  | Unsat -> `Unsat
  | Unknown reason -> `Unknown reason

let sat_stats t = Sat.stats (sat t)

let stats t =
  let st = sat_stats t in
  Printf.sprintf
    "vars=%d clauses=%d learnts=%d conflicts=%d restarts=%d reductions=%d"
    st.Sat.vars st.Sat.clauses st.Sat.learnts st.Sat.conflicts st.Sat.restarts
    st.Sat.db_reductions
