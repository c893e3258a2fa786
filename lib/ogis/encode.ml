module Bv = Smt.Bv
module Solver = Smt.Solver

type spec = {
  width : int;
  ninputs : int;
  noutputs : int;
  library : Component.t list;
}

let num_locations s = s.ninputs + List.length s.library

let loc_width s =
  (* must also represent the exclusive upper bound [num_locations s]
     itself, which appears as a constant in the range constraints *)
  let n = num_locations s in
  let rec bits k = if 1 lsl k > n then k else bits (k + 1) in
  bits 1

(* variable names; the per-example index [e] keeps value variables of
   different examples apart, so one persistent solver can accumulate
   examples (the symbolic distinguishing example uses the sentinel
   index -1, which no concrete example ever gets) *)
let lo i = Printf.sprintf "lo%d" i
let li i j = Printf.sprintf "li%d_%d" i j
let lout k = Printf.sprintf "lout%d" k
let vo e i = Printf.sprintf "vo%d_%d" e i
let vi e i j = Printf.sprintf "vi%d_%d_%d" e i j
let dx j = Printf.sprintf "dx%d" j

let lconst s v = Bv.const ~width:(loc_width s) v
let lvar s name = Bv.var ~width:(loc_width s) name

(* ---- well-formedness: ranges, distinct outputs, acyclicity ---- *)
(* The constraints are canonical, not just well-formed: every program
   function keeps at least one wiring, but wirings that differ only in
   the operand order of a commutative component are cut down to one
   (DESIGN.md "OGIS location encoding"). An input's upper bound
   [li < nloc] is not asserted: it follows from acyclicity and the
   output range. *)
let wfp s =
  let n = List.length s.library in
  let nloc = num_locations s in
  let ranges =
    List.concat
      (List.mapi
         (fun i (c : Component.t) ->
           let out_range =
             [
               Bv.ule (lconst s s.ninputs) (lvar s (lo i));
               Bv.ult (lvar s (lo i)) (lconst s nloc);
             ]
           in
           (* acyclicity *)
           let in_ranges =
             List.init c.Component.arity (fun j ->
                 Bv.ult (lvar s (li i j)) (lvar s (lo i)))
           in
           let canonical =
             if c.Component.commutative then
               [ Bv.ule (lvar s (li i 0)) (lvar s (li i 1)) ]
             else []
           in
           out_range @ in_ranges @ canonical)
         s.library)
  in
  let lib = Array.of_list s.library in
  let distinct =
    List.concat
      (List.init n (fun i ->
           List.init (n - i - 1) (fun d ->
               let j = i + d + 1 in
               (* interchangeable identical components: break the symmetry
                  by ordering their output locations (strictness also
                  subsumes distinctness) *)
               if lib.(i).Component.name = lib.(j).Component.name then
                 Bv.ult (lvar s (lo i)) (lvar s (lo j))
               else Bv.neq (lvar s (lo i)) (lvar s (lo j)))))
  in
  let out_ranges =
    List.init s.noutputs (fun k -> Bv.ult (lvar s (lout k)) (lconst s nloc))
  in
  ranges @ distinct @ out_ranges

let location_env ~lo:los ~li:lis ~lout:louts =
  Bv.env_of_alist
    (List.concat
       [
         List.mapi (fun i l -> (lo i, l)) los;
         List.concat
           (List.mapi (fun i args -> List.mapi (fun j l -> (li i j, l)) args) lis);
         List.mapi (fun k l -> (lout k, l)) louts;
       ])

(* Connect a port to every possible source: the location variable [lport]
   selecting source [l] forces the port's value [vport] to equal the value
   there. Input locations are static constants; component output locations
   are the [lo] variables themselves — the wiring is dynamic, so the
   comparison must be against [lo i'], not against a fixed slot. *)
let port_connections s ~input_term e lport vport =
  let to_inputs =
    List.init s.ninputs (fun l ->
        Bv.fimplies (Bv.eq lport (lconst s l)) (Bv.eq vport (input_term l)))
  in
  let to_components =
    List.mapi
      (fun i' _ ->
        Bv.fimplies
          (Bv.eq lport (lvar s (lo i')))
          (Bv.eq vport (Bv.var ~width:s.width (vo e i'))))
      s.library
  in
  to_inputs @ to_components

(* ---- connection + semantics constraints for one example ---- *)
let example_constraints s ~input_term e =
  let conns = ref [] in
  List.iteri
    (fun i (c : Component.t) ->
      (* component semantics *)
      let args =
        List.init c.Component.arity (fun j -> Bv.var ~width:s.width (vi e i j))
      in
      conns :=
        Bv.eq (Bv.var ~width:s.width (vo e i)) (Component.apply c args)
        :: !conns;
      (* input port connections *)
      for j = 0 to c.Component.arity - 1 do
        conns :=
          port_connections s ~input_term e
            (lvar s (li i j))
            (Bv.var ~width:s.width (vi e i j))
          @ !conns
      done)
    s.library;
  !conns

(* program output k equals [term] in example [e] *)
let output_constraint s ~input_term e k term =
  Bv.conj (port_connections s ~input_term e (lvar s (lout k)) term)

let concrete_example_formulas s e (ins, outs) =
  let input_term j = Bv.const ~width:s.width (List.nth ins j) in
  example_constraints s ~input_term e
  @ List.mapi
      (fun k out ->
        output_constraint s ~input_term e k (Bv.const ~width:s.width out))
      outs

(* ---- decoding a model into a straight-line program ---- *)
let decode s (env : Bv.env) =
  let placed =
    List.mapi (fun i c -> (env.Bv.bv (lo i), i, c)) s.library
    |> List.sort compare
  in
  (* model location -> straight-line location *)
  let loc_map = Hashtbl.create 16 in
  for j = 0 to s.ninputs - 1 do
    Hashtbl.replace loc_map j j
  done;
  List.iteri
    (fun t (l, _, _) -> Hashtbl.replace loc_map l (s.ninputs + t))
    placed;
  let lines =
    List.map
      (fun (_, i, (c : Component.t)) ->
        let args =
          List.init c.Component.arity (fun j ->
              Hashtbl.find loc_map (env.Bv.bv (li i j)))
        in
        { Straightline.comp = c; args })
      placed
  in
  let outputs =
    List.init s.noutputs (fun k -> Hashtbl.find loc_map (env.Bv.bv (lout k)))
  in
  Straightline.make ~width:s.width ~ninputs:s.ninputs lines ~outputs

let synthesize_candidate ?limits s ~examples =
  let formulas =
    wfp s
    @ List.concat (List.mapi (concrete_example_formulas s) examples)
  in
  (* location variables may be unconstrained in corner cases (e.g. no
     examples); anchor them into range by the wfp constraints above *)
  match Solver.check_formulas ?limits formulas with
  | `Unsat -> `Unrealizable
  | `Unknown r -> `Unknown r
  | `Sat env -> `Candidate (decode s env)

(* ---- persistent incremental session ---- *)

(* Two solvers live for the whole OGIS run. The synthesis solver only
   ever gains constraints (each new example strengthens it), so it needs
   no retraction at all. The verification solver carries the symbolic
   "alternative program on a symbolic input" example permanently; the
   per-candidate "outputs differ" disjunction is a retractable
   assertion, and it is retracted only when the candidate actually
   changes: while the candidate survives (the common case once the loop
   converges), consecutive distinguishing queries are a monotone
   strengthening of one another, and the final uniqueness proof is an
   incremental continuation of the previous query's search rather than
   a from-scratch solve. Learned clauses and the bit-blasted encoding
   survive across iterations in both solvers. *)
type session = {
  sspec : spec;
  synth : Solver.t;
  verify : Solver.t;
  mutable nexamples : int;
  (* candidate whose differs-disjunction is currently asserted in
     [verify]; compared physically — the driving loop hands the same
     value back when it retains a candidate *)
  mutable differs : (Straightline.t * Solver.retractable) option;
}

let sym_example = -1
let sym_inputs s = List.init s.ninputs (fun j -> Bv.var ~width:s.width (dx j))

let new_session s =
  let synth = Solver.create () in
  let verify = Solver.create () in
  List.iter (Solver.assert_formula synth) (wfp s);
  List.iter (Solver.assert_formula verify) (wfp s);
  let sym = sym_inputs s in
  let input_term j = List.nth sym j in
  List.iter
    (Solver.assert_formula verify)
    (example_constraints s ~input_term sym_example);
  { sspec = s; synth; verify; nexamples = 0; differs = None }

let add_example sess ex =
  let e = sess.nexamples in
  sess.nexamples <- e + 1;
  let fs = concrete_example_formulas sess.sspec e ex in
  List.iter (Solver.assert_formula sess.synth) fs;
  (* named on the verification side: a uniqueness proof's unsat core
     then blames the examples that pinned the candidate down *)
  ignore
    (Solver.assert_named sess.verify (Printf.sprintf "ex%d" e) (Bv.conj fs)
      : Solver.retractable)

let session_conflicts sess =
  (Solver.sat_stats sess.synth).Smt.Sat.conflicts
  + (Solver.sat_stats sess.verify).Smt.Sat.conflicts

let next_candidate ?limits sess =
  Option.iter (Solver.set_limits sess.synth) limits;
  match Solver.check sess.synth with
  | Solver.Unsat -> `Unrealizable
  | Solver.Unknown r -> `Unknown r
  | Solver.Sat -> `Candidate (decode sess.sspec (Solver.model_env sess.synth))

let distinguishing ?limits sess candidate =
  let s = sess.sspec in
  (match sess.differs with
  | Some (prev, _) when prev == candidate -> ()
  | prev ->
    (match prev with
    | Some (_, r) -> Solver.retract sess.verify r
    | None -> ());
    let sym = sym_inputs s in
    let input_term j = List.nth sym j in
    let candidate_outs = Straightline.to_terms candidate sym in
    let differs =
      Bv.disj
        (List.mapi
           (fun k cand_out ->
             Bv.fnot (output_constraint s ~input_term sym_example k cand_out))
           candidate_outs)
    in
    let r = Solver.assert_named sess.verify "differs" differs in
    sess.differs <- Some (candidate, r));
  Option.iter (Solver.set_limits sess.verify) limits;
  match Solver.check sess.verify with
  | Solver.Unsat -> `Unique
  | Solver.Unknown r -> `Unknown r
  | Solver.Sat ->
    `Input (List.init s.ninputs (fun j -> Solver.value sess.verify (dx j)))

let distinguishing_input ?limits s ~examples candidate =
  let e_sym = List.length examples in
  let sym_inputs = List.init s.ninputs (fun j -> Bv.var ~width:s.width (dx j)) in
  let input_term j = List.nth sym_inputs j in
  let candidate_outs = Straightline.to_terms candidate sym_inputs in
  (* the alternative program's outputs differ on the symbolic input *)
  let differs =
    Bv.disj
      (List.mapi
         (fun k cand_out ->
           Bv.fnot (output_constraint s ~input_term e_sym k cand_out))
         candidate_outs)
  in
  let formulas =
    wfp s
    @ List.concat (List.mapi (concrete_example_formulas s) examples)
    @ example_constraints s ~input_term e_sym
    @ [ differs ]
  in
  match Solver.check_formulas ?limits formulas with
  | `Unsat -> `Unique
  | `Unknown r -> `Unknown r
  | `Sat env -> `Input (List.init s.ninputs (fun j -> env.Bv.bv (dx j)))
