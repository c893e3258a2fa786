(* Tests for the SMT substrate: literals, CDCL SAT, Tseitin gates, the
   bit-vector AST and the bit blaster. The most important tests here are
   differential: CDCL vs the naive DPLL reference on random CNF, and the
   bit blaster vs the big-step evaluator on random QF_BV formulas. *)

module Lit = Smt.Lit
module Sat = Smt.Sat
module Dpll = Smt.Dpll
module Tseitin = Smt.Tseitin
module Bv = Smt.Bv
module Bitblast = Smt.Bitblast
module Solver = Smt.Solver

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let test_lit_roundtrip () =
  for v = 0 to 20 do
    let p = Lit.pos v and n = Lit.neg_of v in
    Alcotest.(check int) "var of pos" v (Lit.var p);
    Alcotest.(check int) "var of neg" v (Lit.var n);
    Alcotest.(check bool) "sign pos" true (Lit.sign p);
    Alcotest.(check bool) "sign neg" false (Lit.sign n);
    Alcotest.(check int) "neg involution" p (Lit.neg (Lit.neg p));
    Alcotest.(check int) "of_int . to_int pos" p (Lit.of_int (Lit.to_int p));
    Alcotest.(check int) "of_int . to_int neg" n (Lit.of_int (Lit.to_int n))
  done

(* ------------------------------------------------------------------ *)
(* Vectors                                                             *)
(* ------------------------------------------------------------------ *)

module Vec = Smt.Vec

let test_ivec_basics () =
  let v = Vec.Ivec.create () in
  for i = 0 to 9 do
    Vec.Ivec.push v i
  done;
  Alcotest.(check int) "size" 10 (Vec.Ivec.size v);
  Vec.Ivec.set v 0 42;
  Alcotest.(check int) "set/get" 42 (Vec.Ivec.get v 0);
  Alcotest.(check int) "last" 9 (Vec.Ivec.last v);
  Alcotest.(check int) "pop" 9 (Vec.Ivec.pop v);
  Vec.Ivec.shrink v 3;
  Alcotest.(check (list int)) "to_list" [ 42; 1; 2 ] (Vec.Ivec.to_list v);
  Vec.Ivec.clear v;
  Alcotest.(check int) "clear" 0 (Vec.Ivec.size v)

(* ------------------------------------------------------------------ *)
(* SAT solver                                                          *)
(* ------------------------------------------------------------------ *)

let mk_solver nvars =
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  s

let test_sat_trivial () =
  let s = mk_solver 2 in
  Sat.add_clause s [ Lit.pos 0 ];
  Sat.add_clause s [ Lit.neg_of 1 ];
  (match Sat.solve s with
  | Sat.Sat -> ()
  | Sat.Unsat -> Alcotest.fail "expected sat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Alcotest.(check bool) "v0 true" true (Sat.value s 0);
  Alcotest.(check bool) "v1 false" false (Sat.value s 1)

let test_sat_empty_clause () =
  let s = mk_solver 1 in
  Sat.add_clause s [ Lit.pos 0 ];
  Sat.add_clause s [ Lit.neg_of 0 ];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "expected unsat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_sat_propagation_chain () =
  (* x0 and a chain x_i -> x_{i+1}; then force ~x_n: unsat *)
  let n = 30 in
  let s = mk_solver (n + 1) in
  Sat.add_clause s [ Lit.pos 0 ];
  for i = 0 to n - 1 do
    Sat.add_clause s [ Lit.neg_of i; Lit.pos (i + 1) ]
  done;
  Sat.add_clause s [ Lit.neg_of n ];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "expected unsat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown"

(* Pigeonhole: n+1 pigeons in n holes, var p(i,h) = i * n + h. *)
let pigeonhole n =
  let s = mk_solver ((n + 1) * n) in
  let v i h = (i * n) + h in
  for i = 0 to n do
    Sat.add_clause s (List.init n (fun h -> Lit.pos (v i h)))
  done;
  for h = 0 to n - 1 do
    for i = 0 to n do
      for j = i + 1 to n do
        Sat.add_clause s [ Lit.neg_of (v i h); Lit.neg_of (v j h) ]
      done
    done
  done;
  s

let test_sat_pigeonhole () =
  List.iter
    (fun n ->
      match Sat.solve (pigeonhole n) with
      | Sat.Unsat -> ()
      | Sat.Sat -> Alcotest.failf "PHP(%d) should be unsat" n
      | Sat.Unknown _ -> Alcotest.fail "unexpected unknown")
    [ 2; 3; 4; 5 ]

let test_sat_assumptions () =
  (* (x0 \/ x1) /\ (~x0 \/ x1): x1 false forces unsat; x1 true is sat *)
  let s = mk_solver 2 in
  Sat.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Sat.add_clause s [ Lit.neg_of 0; Lit.pos 1 ];
  (match Sat.solve_with_assumptions s [ Lit.neg_of 1 ] with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "expected unsat under ~x1"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  (match Sat.solve_with_assumptions s [ Lit.pos 1 ] with
  | Sat.Sat -> ()
  | Sat.Unsat -> Alcotest.fail "expected sat under x1"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Alcotest.(check bool) "assumption honoured" true (Sat.value s 1)

let test_sat_luby () =
  (* the canonical prefix of the 1-indexed Luby sequence *)
  Alcotest.(check (list int))
    "luby prefix"
    [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ]
    (List.init 15 (fun i -> Sat.luby (i + 1)));
  (* spot-check deeper entries: position 2^k - 1 is 2^(k-1) *)
  Alcotest.(check int) "luby 31" 16 (Sat.luby 31);
  Alcotest.(check int) "luby 63" 32 (Sat.luby 63);
  Alcotest.(check int) "luby 64" 1 (Sat.luby 64)

let test_sat_incremental () =
  let s = mk_solver 3 in
  Sat.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  (match Sat.solve_with_assumptions s [] with
  | Sat.Sat -> ()
  | Sat.Unsat -> Alcotest.fail "sat expected"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Sat.add_clause s [ Lit.neg_of 0 ];
  Sat.add_clause s [ Lit.neg_of 1 ];
  match Sat.solve_with_assumptions s [] with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "unsat expected after strengthening"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown"

(* random k-CNF for the differential test *)
let gen_cnf =
  QCheck2.Gen.(
    let* nvars = int_range 1 12 in
    let* nclauses = int_range 1 50 in
    let gen_lit =
      let* v = int_range 0 (nvars - 1) in
      let* s = bool in
      return (Lit.make v s)
    in
    let gen_clause =
      let* len = int_range 1 4 in
      list_size (return len) gen_lit
    in
    let* clauses = list_size (return nclauses) gen_clause in
    return (nvars, clauses))

let print_cnf (nvars, clauses) =
  Printf.sprintf "nvars=%d cnf=%s" nvars
    (String.concat " & "
       (List.map
          (fun c ->
            "(" ^ String.concat "|" (List.map (fun l -> string_of_int (Lit.to_int l)) c) ^ ")")
          clauses))

let prop_cdcl_vs_dpll =
  QCheck2.Test.make ~name:"CDCL agrees with reference DPLL" ~count:500
    ~print:print_cnf gen_cnf (fun (nvars, clauses) ->
      let s = mk_solver nvars in
      List.iter (Sat.add_clause s) clauses;
      let cdcl = Sat.solve s in
      let ref_result = Dpll.solve ~nvars clauses in
      match (cdcl, ref_result) with
      | Sat.Sat, Dpll.Sat _ ->
        (* also check that the CDCL model really satisfies the formula *)
        let m = Array.init nvars (Sat.value s) in
        Dpll.eval m clauses
      | Sat.Unsat, Dpll.Unsat -> true
      | Sat.Unknown _, _ -> false
      | Sat.Sat, Dpll.Unsat | Sat.Unsat, Dpll.Sat _ -> false)

(* ------------------------------------------------------------------ *)
(* Tseitin gates                                                       *)
(* ------------------------------------------------------------------ *)

let gate_truth_table name build expected =
  (* for each input combination, build a fresh context, constrain inputs,
     solve and read the gate output *)
  List.iteri
    (fun idx (va, vb) ->
      let t = Tseitin.create () in
      let a = Tseitin.fresh t and b = Tseitin.fresh t in
      let o = build t a b in
      Tseitin.assert_lit t (if va then a else Lit.neg a);
      Tseitin.assert_lit t (if vb then b else Lit.neg b);
      (match Sat.solve (Tseitin.solver t) with
      | Sat.Sat -> ()
      | Sat.Unsat -> Alcotest.failf "%s: inputs should be satisfiable" name
      | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
      Alcotest.(check bool)
        (Printf.sprintf "%s row %d" name idx)
        (expected va vb)
        (Tseitin.lit_of_model t o))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_tseitin_gates () =
  gate_truth_table "and" Tseitin.and2 (fun a b -> a && b);
  gate_truth_table "or" Tseitin.or2 (fun a b -> a || b);
  gate_truth_table "xor" Tseitin.xor2 (fun a b -> a <> b);
  gate_truth_table "iff" Tseitin.iff2 (fun a b -> a = b);
  gate_truth_table "implies" Tseitin.implies (fun a b -> (not a) || b)

let test_tseitin_mux () =
  List.iter
    (fun (vc, va, vb) ->
      let t = Tseitin.create () in
      let c = Tseitin.fresh t and a = Tseitin.fresh t and b = Tseitin.fresh t in
      let o = Tseitin.mux t c a b in
      let fix l v = Tseitin.assert_lit t (if v then l else Lit.neg l) in
      fix c vc;
      fix a va;
      fix b vb;
      (match Sat.solve (Tseitin.solver t) with
      | Sat.Sat -> ()
      | Sat.Unsat -> Alcotest.fail "mux inputs satisfiable"
      | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
      Alcotest.(check bool) "mux" (if vc then va else vb) (Tseitin.lit_of_model t o))
    [
      (false, false, false); (false, false, true); (false, true, false);
      (false, true, true); (true, false, false); (true, false, true);
      (true, true, false); (true, true, true);
    ]

let test_tseitin_constants () =
  let t = Tseitin.create () in
  let a = Tseitin.fresh t in
  Alcotest.(check int) "and true" a (Tseitin.and2 t (Tseitin.true_ t) a);
  Alcotest.(check int) "and false" (Tseitin.false_ t)
    (Tseitin.and2 t (Tseitin.false_ t) a);
  Alcotest.(check int) "or false" a (Tseitin.or2 t (Tseitin.false_ t) a);
  Alcotest.(check int) "xor with self" (Tseitin.false_ t) (Tseitin.xor2 t a a);
  Alcotest.(check int) "xor true" (Lit.neg a) (Tseitin.xor2 t (Tseitin.true_ t) a)

(* ------------------------------------------------------------------ *)
(* Bv evaluation                                                       *)
(* ------------------------------------------------------------------ *)

let test_bv_constant_folding () =
  let w = 8 in
  let c v = Bv.const ~width:w v in
  let check name expected t =
    match (t : Bv.term) with
    | Bv.Const { value; _ } -> Alcotest.(check int) name expected value
    | _ -> Alcotest.failf "%s: expected constant folding" name
  in
  check "add wraps" 4 (Bv.badd (c 250) (c 10));
  check "sub wraps" 246 (Bv.bsub (c 0) (c 10));
  check "mul wraps" 144 (Bv.bmul (c 20) (c 20));
  check "div" 6 (Bv.budiv (c 20) (c 3));
  check "div by zero" 255 (Bv.budiv (c 20) (c 0));
  check "rem" 2 (Bv.burem (c 20) (c 3));
  check "rem by zero" 20 (Bv.burem (c 20) (c 0));
  check "shl" 40 (Bv.bshl (c 10) (c 2));
  check "shl overflow" 0 (Bv.bshl (c 10) (c 9));
  check "lshr" 2 (Bv.blshr (c 10) (c 2));
  check "ashr sign" 255 (Bv.bashr (c 0x80) (c 7));
  check "not" 245 (Bv.bnot (c 10));
  check "neg" 246 (Bv.bneg (c 10))

let test_bv_signed () =
  let w = 4 in
  Alcotest.(check int) "to_signed 0xF" (-1) (Bv.to_signed ~width:w 0xF);
  Alcotest.(check int) "to_signed 7" 7 (Bv.to_signed ~width:w 7);
  Alcotest.(check int) "to_signed 8" (-8) (Bv.to_signed ~width:w 8);
  let c v = Bv.const ~width:w v in
  Alcotest.(check bool) "slt -1 < 0" true (Bv.slt (c 0xF) (c 0) = Bv.tru);
  Alcotest.(check bool) "ult 0xF > 0" true (Bv.ult (c 0) (c 0xF) = Bv.tru)

let test_bv_width_mismatch () =
  let a = Bv.var ~width:8 "a" and b = Bv.var ~width:4 "b" in
  Alcotest.check_raises "badd width mismatch"
    (Invalid_argument "Bv.badd: width mismatch (8 vs 4)") (fun () ->
      ignore (Bv.badd a b))

let test_bv_vars () =
  let a = Bv.var ~width:8 "a" and b = Bv.var ~width:8 "b" in
  let f = Bv.fand (Bv.eq (Bv.badd a b) b) (Bv.ult a b) in
  Alcotest.(check (list (pair string int)))
    "formula vars"
    [ ("a", 8); ("b", 8) ]
    (Bv.formula_vars f)

(* ------------------------------------------------------------------ *)
(* Bit blaster: differential against the evaluator                     *)
(* ------------------------------------------------------------------ *)

let gen_term width =
  QCheck2.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self n ->
        if n = 0 then
          oneof
            [
              (let* v = int_range 0 ((1 lsl width) - 1) in
               return (Bv.const ~width v));
              oneofl [ Bv.var ~width "x"; Bv.var ~width "y"; Bv.var ~width "z" ];
            ]
        else
          let sub = self (n / 2) in
          oneof
            [
              (let* a = sub in
               let* op = oneofl [ Bv.bnot; Bv.bneg ] in
               return (op a));
              (let* a = sub and* b = sub in
               let* op =
                 oneofl
                   [
                     Bv.band; Bv.bor; Bv.bxor; Bv.badd; Bv.bsub; Bv.bmul;
                     Bv.budiv; Bv.burem; Bv.bshl; Bv.blshr; Bv.bashr;
                   ]
               in
               return (op a b));
            ]))

let gen_formula width =
  QCheck2.Gen.(
    let atom =
      let* a = gen_term width and* b = gen_term width in
      let* op = oneofl [ Bv.eq; Bv.ult; Bv.ule; Bv.slt; Bv.sle ] in
      return (op a b)
    in
    sized_size (int_range 0 3) @@ fix (fun self n ->
        if n = 0 then atom
        else
          let sub = self (n / 2) in
          oneof
            [
              atom;
              (let* f = sub in
               return (Bv.fnot f));
              (let* a = sub and* b = sub in
               let* op = oneofl [ Bv.fand; Bv.for_; Bv.fxor ] in
               return (op a b));
            ]))

let bb_width = 5

let gen_formula_env =
  QCheck2.Gen.(
    let* f = gen_formula bb_width in
    let m = (1 lsl bb_width) - 1 in
    let* vx = int_range 0 m and* vy = int_range 0 m and* vz = int_range 0 m in
    return (f, vx, vy, vz))

let print_formula_env (f, vx, vy, vz) =
  Format.asprintf "%a with x=%d y=%d z=%d" Bv.pp f vx vy vz

let prop_bitblast_vs_eval =
  QCheck2.Test.make ~name:"bit blaster agrees with evaluator" ~count:400
    ~print:print_formula_env gen_formula_env (fun (f, vx, vy, vz) ->
      let env = Bv.env_of_alist [ ("x", vx); ("y", vy); ("z", vz) ] in
      let expected = Bv.eval env f in
      let solver = Solver.create () in
      let fix name v =
        Solver.assert_formula solver
          (Bv.eq (Bv.var ~width:bb_width name) (Bv.const ~width:bb_width v))
      in
      fix "x" vx;
      fix "y" vy;
      fix "z" vz;
      Solver.assert_formula solver f;
      match Solver.check solver with
      | Solver.Sat -> expected
      | Solver.Unsat -> not expected
      | Solver.Unknown _ -> false)

let prop_model_satisfies =
  QCheck2.Test.make ~name:"models returned by the solver satisfy the formula"
    ~count:300
    ~print:(fun f -> Format.asprintf "%a" Bv.pp f)
    (gen_formula bb_width)
    (fun f ->
      match Solver.check_formulas [ f ] with
      | `Unknown _ -> false
      | `Sat env -> Bv.eval env f
      | `Unsat ->
        (* cross-check with brute force over the three variables *)
        let m = (1 lsl bb_width) - 1 in
        let found = ref false in
        for vx = 0 to m do
          for vy = 0 to m do
            for vz = 0 to m do
              if
                (not !found)
                && Bv.eval (Bv.env_of_alist [ ("x", vx); ("y", vy); ("z", vz) ]) f
              then found := true
            done
          done
        done;
        not !found)

(* ------------------------------------------------------------------ *)
(* Assertion paths: top-level clausification vs brute force            *)
(* ------------------------------------------------------------------ *)

(* An incremental script over one solver. Every step is followed by a
   check whose verdict is compared with brute-force evaluation of the
   assertions active at that point; a Sat model must satisfy each of
   them. *)
type step =
  | Assert of Bv.formula
  | Push
  | Pop
  | Named of Bv.formula
  | Retract of int

let fz_vars = [ "x"; "y"; "z" ]

let gen_fuzz_formula width =
  QCheck2.Gen.(
    let leaf =
      oneof
        [
          map (fun v -> Bv.const ~width v) (int_range 0 ((1 lsl width) - 1));
          map (fun n -> Bv.var ~width n) (oneofl fz_vars);
        ]
    in
    let cmp = oneofl [ Bv.eq; Bv.neq; Bv.ult; Bv.ule ] in
    let cond = map3 (fun op a b -> op a b) cmp leaf leaf in
    let term =
      oneof
        [
          leaf;
          map2 Bv.badd leaf leaf;
          map2 Bv.band leaf leaf;
          map3 Bv.ite cond leaf leaf;
        ]
    in
    let atom = oneof [ cond; map3 (fun op a b -> op a b) cmp term term ] in
    sized_size (int_range 0 4) @@ fix (fun self n ->
        if n = 0 then atom
        else
          let sub = self (n / 2) in
          oneof
            [
              atom;
              map Bv.fnot sub;
              map2 Bv.fand sub sub;
              map2 Bv.for_ sub sub;
              map2 Bv.fimplies sub sub;
              (* the shapes the clausifier takes apart *)
              map3 (fun a b c -> Bv.for_ a (Bv.fand b c)) sub sub sub;
              map3 (fun a b c -> Bv.fand a (Bv.for_ b c)) sub sub sub;
              map2 (fun a b -> Bv.fnot (Bv.for_ a b)) sub sub;
            ]))

let gen_script =
  QCheck2.Gen.(
    let* width = int_range 1 3 in
    let f = gen_fuzz_formula width in
    let step =
      frequency
        [
          (4, map (fun f -> Assert f) f);
          (2, return Push);
          (2, return Pop);
          (3, map (fun f -> Named f) f);
          (2, map (fun i -> Retract i) (int_range 0 3));
        ]
    in
    let* steps = list_size (int_range 1 8) step in
    return (width, steps))

let print_script (width, steps) =
  let pp = Format.asprintf "%a" Bv.pp in
  Printf.sprintf "width %d: %s" width
    (String.concat "; "
       (List.map
          (function
            | Assert f -> "assert " ^ pp f
            | Push -> "push"
            | Pop -> "pop"
            | Named f -> "named " ^ pp f
            | Retract i -> Printf.sprintf "retract %d" i)
          steps))

let brute_force_sat width fs =
  let m = (1 lsl width) - 1 in
  let found = ref false in
  for vx = 0 to m do
    for vy = 0 to m do
      for vz = 0 to m do
        let env = Bv.env_of_alist [ ("x", vx); ("y", vy); ("z", vz) ] in
        if (not !found) && List.for_all (Bv.eval env) fs then found := true
      done
    done
  done;
  !found

let prop_assertion_paths =
  QCheck2.Test.make
    ~name:"assert/push/pop/named/retract agree with brute force" ~count:400
    ~print:print_script gen_script (fun (width, steps) ->
      let s = Solver.create () in
      (* scoped assertions, innermost scope first; the outermost list is
         the permanent level *)
      let scopes = ref [ [] ] in
      let named = ref [] (* (name, handle, formula), newest first *) in
      let fresh = ref 0 in
      let run step =
        match step with
        | Assert f ->
          Solver.assert_formula s f;
          scopes := (f :: List.hd !scopes) :: List.tl !scopes
        | Push ->
          Solver.push s;
          scopes := [] :: !scopes
        | Pop ->
          if List.length !scopes > 1 then begin
            Solver.pop s;
            scopes := List.tl !scopes
          end
        | Named f ->
          let name = Printf.sprintf "r%d" !fresh in
          incr fresh;
          named := (name, Solver.assert_named s name f, f) :: !named
        | Retract i -> (
          match List.nth_opt !named i with
          | None -> ()
          | Some ((_, r, _) as entry) ->
            Solver.retract s r;
            named := List.filter (fun e -> e != entry) !named)
      in
      List.for_all
        (fun step ->
          run step;
          let active =
            List.concat !scopes @ List.map (fun (_, _, f) -> f) !named
          in
          match Solver.check s with
          | Solver.Unknown _ -> false
          | Solver.Sat ->
            let env = Solver.model_env s in
            List.for_all (Bv.eval env) active
          | Solver.Unsat ->
            (not (brute_force_sat width active))
            && List.for_all
                 (fun n ->
                   n.[0] <> 'r'
                   || List.exists (fun (m, _, _) -> m = n) !named)
                 (Solver.unsat_core s))
        steps)

let test_asserted_clauses_counted () =
  let asserted = Obs.Metrics.counter "bitblast.asserted_clauses" in
  let gates = Obs.Metrics.counter "tseitin.gates" in
  let w = 4 in
  let v n = Bv.var ~width:w n in
  let s = Solver.create () in
  let delta f =
    let a0 = Obs.Metrics.counter_value asserted
    and g0 = Obs.Metrics.counter_value gates in
    f ();
    ( Obs.Metrics.counter_value asserted - a0,
      Obs.Metrics.counter_value gates - g0 )
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "an equation is two clauses per bit and no gate"
    (2 * w, 0)
    (delta (fun () -> Solver.assert_formula s (Bv.eq (v "x") (v "y"))));
  Alcotest.check pair "a constant side leaves one clause per bit" (w, 0)
    (delta (fun () ->
         Solver.assert_formula s (Bv.eq (v "z") (Bv.const ~width:w 5))));
  (* the guard is the Tseitin literal of a = b: w XNORs, w - 1 ANDs *)
  Alcotest.check pair "a guarded equation keeps its clauses" (2 * w, (2 * w) - 1)
    (delta (fun () ->
         ignore
           (Solver.assert_named s "g"
              (Bv.fimplies (Bv.eq (v "a") (v "b")) (Bv.eq (v "x") (v "c")))
             : Solver.retractable)));
  Alcotest.check pair "a conjunction splits" ((2 * w) + 1, (2 * w) - 1)
    (delta (fun () ->
         Solver.assert_formula s
           (Bv.fand (Bv.eq (v "c") (v "d")) (Bv.neq (v "a") (v "c")))));
  Alcotest.(check bool) "still satisfiable" true (Solver.check s = Solver.Sat)

let test_divider_circuit () =
  (* exercise the division encoding with symbolic operands *)
  let w = 6 in
  List.iter
    (fun (a, b) ->
      let x = Bv.var ~width:w "x" and y = Bv.var ~width:w "y" in
      let solver = Solver.create () in
      Solver.assert_formula solver (Bv.eq x (Bv.const ~width:w a));
      Solver.assert_formula solver (Bv.eq y (Bv.const ~width:w b));
      Solver.assert_formula solver
        (Bv.eq (Bv.var ~width:w "q") (Bv.budiv x y));
      Solver.assert_formula solver
        (Bv.eq (Bv.var ~width:w "r") (Bv.burem x y));
      (match Solver.check solver with
      | Solver.Sat -> ()
      | Solver.Unsat -> Alcotest.fail "division instance must be sat"
      | Solver.Unknown _ -> Alcotest.fail "unexpected unknown");
      let expected_q = if b = 0 then (1 lsl w) - 1 else a / b in
      let expected_r = if b = 0 then a else a mod b in
      Alcotest.(check int)
        (Printf.sprintf "q of %d/%d" a b)
        expected_q (Solver.value solver "q");
      Alcotest.(check int)
        (Printf.sprintf "r of %d/%d" a b)
        expected_r (Solver.value solver "r"))
    [ (17, 5); (63, 1); (63, 63); (0, 7); (42, 0); (13, 13); (7, 9) ]

(* ------------------------------------------------------------------ *)
(* cross-context CNF recipe cache                                      *)
(* ------------------------------------------------------------------ *)

let test_cnfcache_cross_context_hits () =
  Smt.Cnfcache.clear ();
  let hits = Obs.Metrics.counter "bitblast.shared_hits" in
  let misses = Obs.Metrics.counter "bitblast.shared_misses" in
  Obs.Metrics.set_counter hits 0;
  Obs.Metrics.set_counter misses 0;
  let w = 4 in
  let product_at k =
    let solver = Solver.create () in
    let x = Bv.var ~width:w "x" and y = Bv.var ~width:w "y" in
    Solver.assert_formula solver
      (Bv.eq (Bv.bmul x y) (Bv.const ~width:w k));
    match Solver.check solver with
    | Solver.Sat ->
      let vx = Solver.value solver "x" and vy = Solver.value solver "y" in
      Alcotest.(check int)
        (Printf.sprintf "model multiplies to %d" k)
        k
        (vx * vy mod (1 lsl w));
      true
    | Solver.Unsat -> false
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown"
  in
  (* first context records the mul:4 recipe, the rest replay it *)
  Alcotest.(check bool) "6 is a product" true (product_at 6);
  Alcotest.(check int) "first encoding misses" 1
    (Obs.Metrics.counter_value misses);
  Alcotest.(check bool) "13 is a product" true (product_at 13);
  Alcotest.(check bool) "9 is a product" true (product_at 9);
  Alcotest.(check int) "later contexts hit the shared recipe" 2
    (Obs.Metrics.counter_value hits);
  Alcotest.(check int) "one recipe in the table" 1
    (Smt.Cnfcache.cached_recipes ())

let test_cnfcache_constant_bypass () =
  Smt.Cnfcache.clear ();
  let hits = Obs.Metrics.counter "bitblast.shared_hits" in
  let misses = Obs.Metrics.counter "bitblast.shared_misses" in
  Obs.Metrics.set_counter hits 0;
  Obs.Metrics.set_counter misses 0;
  let w = 4 in
  let solver = Solver.create () in
  let x = Bv.var ~width:w "x" in
  (* multiplication by a constant folds eagerly; the recipe cache must
     stay out of the way *)
  Solver.assert_formula solver
    (Bv.eq (Bv.bmul x (Bv.const ~width:w 3)) (Bv.const ~width:w 9));
  (match Solver.check solver with
  | Solver.Sat -> Alcotest.(check int) "3x=9" 3 (Solver.value solver "x")
  | _ -> Alcotest.fail "3x=9 must be sat");
  Alcotest.(check int) "no recipe traffic on constant operands" 0
    (Obs.Metrics.counter_value hits + Obs.Metrics.counter_value misses)

let test_cnfcache_record_replay () =
  (* record a tiny encoder and replay it twice into one context: the
     two instances must constrain their own wires independently *)
  let recipe =
    Smt.Cnfcache.record ~n_inputs:2 (fun ctx inputs ->
        [| [| Smt.Tseitin.and2 ctx inputs.(0) inputs.(1) |] |])
  in
  Alcotest.(check int) "two inputs" 2 (Smt.Cnfcache.n_inputs recipe);
  Alcotest.(check int) "one aux (the gate output)" 1
    (Smt.Cnfcache.n_aux recipe);
  Alcotest.(check int) "three gate clauses" 3
    (Smt.Cnfcache.n_clauses recipe);
  let ctx = Smt.Tseitin.create () in
  let a = Smt.Tseitin.fresh ctx and b = Smt.Tseitin.fresh ctx in
  let o1 = (Smt.Cnfcache.replay recipe ctx [| a; b |]).(0).(0) in
  let o2 = (Smt.Cnfcache.replay recipe ctx [| b; a |]).(0).(0) in
  let sat = Smt.Tseitin.solver ctx in
  let solve assumptions = Smt.Sat.solve_with_assumptions sat assumptions in
  Alcotest.(check bool) "a&b with both true" true
    (solve [ a; b; o1; o2 ] = Smt.Sat.Sat);
  Alcotest.(check bool) "output forced false when an input is false" true
    (solve [ a; Smt.Lit.neg b; o1 ] = Smt.Sat.Unsat);
  Alcotest.(check bool) "replays are independent instances" true
    (solve [ Smt.Lit.neg a; b; Smt.Lit.neg o1; o2 ] = Smt.Sat.Unsat);
  match Smt.Cnfcache.replay recipe ctx [| a |] with
  | _ -> Alcotest.fail "arity mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_solver_unsat_arith () =
  (* x + 1 = x is unsatisfiable at any width *)
  let x = Bv.var ~width:8 "x" in
  match Solver.check_formulas [ Bv.eq (Bv.badd x (Bv.const ~width:8 1)) x ] with
  | `Unsat -> ()
  | `Sat _ -> Alcotest.fail "x+1=x should be unsat"
  | `Unknown _ -> Alcotest.fail "unexpected unknown"

let test_solver_xor_swap () =
  (* the classic xor swap: after three xors, values are exchanged. Checked
     by asserting the negation is unsat at width 8. *)
  let w = 8 in
  let a = Bv.var ~width:w "a" and b = Bv.var ~width:w "b" in
  let a1 = Bv.bxor a b in
  let b1 = Bv.bxor a1 b in
  let a2 = Bv.bxor a1 b1 in
  (* now b1 = a, a2 = b *)
  let good = Bv.fand (Bv.eq b1 a) (Bv.eq a2 b) in
  match Solver.check_formulas [ Bv.fnot good ] with
  | `Unsat -> ()
  | `Sat _ -> Alcotest.fail "xor swap identity should hold"
  | `Unknown _ -> Alcotest.fail "unexpected unknown"

(* ------------------------------------------------------------------ *)
(* DIMACS                                                              *)
(* ------------------------------------------------------------------ *)

module Dimacs = Smt.Dimacs

let test_dimacs_roundtrip () =
  let text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let p = Dimacs.parse text in
  Alcotest.(check int) "nvars" 3 p.Dimacs.nvars;
  Alcotest.(check int) "clauses" 2 (List.length p.Dimacs.clauses);
  let p2 = Dimacs.parse (Dimacs.to_string p) in
  Alcotest.(check bool) "roundtrip" true (p = p2)

let test_dimacs_multiline_clause () =
  let p = Dimacs.parse "p cnf 4 1\n1 2\n3 -4 0\n" in
  Alcotest.(check int) "one clause of four" 4
    (List.length (List.hd p.Dimacs.clauses))

let test_dimacs_errors () =
  let fails s =
    match Dimacs.parse s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  fails "1 2 0\n";
  fails "p cnf 2 1\n5 0\n";
  fails "p cnf 2 1\n1 2\n";
  fails "p cnf 2 9\n1 0\n"

let test_dimacs_solve () =
  (match Dimacs.solve (Dimacs.parse "p cnf 2 2\n1 0\n-1 2 0\n") with
  | Dpll.Sat m ->
    Alcotest.(check bool) "x1" true m.(0);
    Alcotest.(check bool) "x2" true m.(1)
  | Dpll.Unsat -> Alcotest.fail "satisfiable");
  match Dimacs.solve (Dimacs.parse "p cnf 1 2\n1 0\n-1 0\n") with
  | Dpll.Unsat -> ()
  | Dpll.Sat _ -> Alcotest.fail "unsatisfiable"

let prop_dimacs_roundtrip =
  QCheck2.Test.make ~name:"dimacs print/parse roundtrip" ~count:200
    ~print:print_cnf gen_cnf (fun (nvars, clauses) ->
      (* drop empty clauses: DIMACS cannot express them unambiguously
         in our generator's range *)
      let clauses = List.filter (( <> ) []) clauses in
      let p = { Dimacs.nvars; clauses } in
      Dimacs.parse (Dimacs.to_string p) = p)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "smt"
    [
      ( "lit",
        [ Alcotest.test_case "roundtrip and involution" `Quick test_lit_roundtrip ] );
      ( "vec",
        [
          Alcotest.test_case "int vectors" `Quick test_ivec_basics;
        ] );
      ( "sat",
        [
          Alcotest.test_case "trivial units" `Quick test_sat_trivial;
          Alcotest.test_case "contradiction" `Quick test_sat_empty_clause;
          Alcotest.test_case "propagation chain" `Quick test_sat_propagation_chain;
          Alcotest.test_case "pigeonhole unsat" `Quick test_sat_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_sat_assumptions;
          Alcotest.test_case "luby sequence" `Quick test_sat_luby;
          Alcotest.test_case "incremental strengthening" `Quick test_sat_incremental;
        ] );
      qsuite "sat-qcheck" [ prop_cdcl_vs_dpll ];
      ( "tseitin",
        [
          Alcotest.test_case "gate truth tables" `Quick test_tseitin_gates;
          Alcotest.test_case "mux truth table" `Quick test_tseitin_mux;
          Alcotest.test_case "constant folding" `Quick test_tseitin_constants;
        ] );
      ( "bv",
        [
          Alcotest.test_case "constant folding semantics" `Quick
            test_bv_constant_folding;
          Alcotest.test_case "signed interpretation" `Quick test_bv_signed;
          Alcotest.test_case "width mismatch rejected" `Quick
            test_bv_width_mismatch;
          Alcotest.test_case "free variables" `Quick test_bv_vars;
        ] );
      ( "bitblast",
        [
          Alcotest.test_case "division circuit" `Quick test_divider_circuit;
          Alcotest.test_case "x+1=x unsat" `Quick test_solver_unsat_arith;
          Alcotest.test_case "xor swap identity" `Quick test_solver_xor_swap;
          Alcotest.test_case "asserted clauses counted" `Quick
            test_asserted_clauses_counted;
        ] );
      ( "cnfcache",
        [
          Alcotest.test_case "recipes hit across contexts" `Quick
            test_cnfcache_cross_context_hits;
          Alcotest.test_case "constant operands bypass the cache" `Quick
            test_cnfcache_constant_bypass;
          Alcotest.test_case "record/replay round trip" `Quick
            test_cnfcache_record_replay;
        ] );
      qsuite "bitblast-qcheck"
        [ prop_bitblast_vs_eval; prop_model_satisfies; prop_assertion_paths ];
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "multiline clauses" `Quick
            test_dimacs_multiline_clause;
          Alcotest.test_case "malformed inputs rejected" `Quick
            test_dimacs_errors;
          Alcotest.test_case "solve" `Quick test_dimacs_solve;
        ] );
      qsuite "dimacs-qcheck" [ prop_dimacs_roundtrip ];
    ]
