module Tseitin = Smt.Tseitin
module Sat = Smt.Sat
module Loop = Sciduction.Loop

type verdict =
  | Proved
  | Cex_in_base
  | Unknown
  | Aborted of Budget.reason

(* inside a loop, every query is a metered call of its deductive
   engine *)
let solve_metered ?loop sat assumptions =
  match loop with
  | None -> Sat.solve_with_assumptions sat assumptions
  | Some lp ->
    Loop.solve lp
      ~conflicts:(fun () -> Sat.num_conflicts sat)
      (fun limits ->
        Sat.set_limits sat limits;
        Sat.solve_with_assumptions sat assumptions)

let tick_opt = function None -> None | Some lp -> Loop.tick lp

(* encode one combinational frame: node index -> Tseitin literal. AND
   operands always precede their gate (structural hashing allocates
   bottom-up), so one pass in index order suffices. *)
let encode_frame ctx aig ~latch_lits =
  let n = Aig.num_nodes aig in
  let m = Array.make n (Tseitin.false_ ctx) in
  let latch_index = Hashtbl.create 16 in
  List.iteri
    (fun k l -> Hashtbl.replace latch_index (Aig.node_of l) k)
    (Aig.latches aig);
  let lit_of l =
    let base = m.(Aig.node_of l) in
    if Aig.is_complemented l then Tseitin.not_ base else base
  in
  for i = 1 to n - 1 do
    m.(i) <-
      (if Aig.is_input_node aig i then Tseitin.fresh ctx
       else
         match Hashtbl.find_opt latch_index i with
         | Some k -> latch_lits.(k)
         | None -> (
           match Aig.and_operands aig i with
           | Some (a, b) -> Tseitin.and2 ctx (lit_of a) (lit_of b)
           | None -> Tseitin.false_ ctx))
  done;
  m

let lit_of m l =
  let base = m.(Aig.node_of l) in
  if Aig.is_complemented l then Smt.Lit.neg base else base

let candidate_lit ctx m = function
  | Candidates.Equiv (a, b) -> Tseitin.iff2 ctx (lit_of m a) (lit_of m b)
  | Candidates.Implies (a, b) -> Tseitin.implies ctx (lit_of m a) (lit_of m b)

let next_latch_lits aig m =
  Array.of_list
    (List.map
       (fun l ->
         match Aig.next_of aig l with
         | Some nx -> lit_of m nx
         | None -> invalid_arg "Induction: unconnected latch")
       (Aig.latches aig))

(* telemetry: one fixpoint pass = one loop iteration; candidates dropped
   by a pass are the counterexample that shrinks the survivor set *)
let pass_started loop ~base ~index ~survivors =
  Option.iter
    (fun lp ->
      Loop.iteration lp index
        ~attrs:
          [
            ("phase", Obs.String (if base then "base" else "step"));
            ("survivors", Obs.Int survivors);
          ])
    loop

let pass_dropped loop ~before ~after =
  Option.iter
    (fun lp ->
      Loop.counterexample lp
        ~attrs:[ ("dropped", Obs.Int (before - after)) ])
    loop

(* Incremental fixpoint: one solver for all passes of one phase. The
   frames are encoded once. In the step phase each candidate gets a
   selector literal guarding its frame-A assumption, so the shrinking
   survivor set is expressed through assumptions instead of re-encoding;
   the per-pass "some survivor fails in the check frame" clause lives in
   a push/pop scope. Conflict clauses learned while refuting one pass
   carry over to the next. *)
let fixpoint ?loop aig cands ~base =
  match cands with
  | [] -> Budget.Converged []
  | _ ->
    let ctx = Tseitin.create () in
    let init_lits =
      Array.map (fun b -> Tseitin.of_bool ctx b) (Aig.initial_state aig)
    in
    let frame_a_latches =
      if base then init_lits
      else Array.map (fun _ -> Tseitin.fresh ctx) init_lits
    in
    let m_a = encode_frame ctx aig ~latch_lits:frame_a_latches in
    let m_check =
      if base then m_a
      else encode_frame ctx aig ~latch_lits:(next_latch_lits aig m_a)
    in
    (* (candidate, its check-frame literal, frame-A selector) *)
    let items =
      List.mapi
        (fun i c ->
          let sel =
            if base then None
            else begin
              let s = Tseitin.fresh ctx in
              Tseitin.assert_clause ctx
                [ Tseitin.not_ s; candidate_lit ctx m_a c ];
              (* an unsat core of the fixpoint pass then names which
                 frame-A candidate assumptions the proof leaned on *)
              Tseitin.name_lit ctx s (Printf.sprintf "cand%d" i);
              Some s
            end
          in
          (c, candidate_lit ctx m_check c, sel))
        cands
    in
    let sat = Tseitin.solver ctx in
    let cands_of items = List.map (fun (c, _, _) -> c) items in
    let rec go index survivors =
      match survivors with
      | [] -> Budget.Converged []
      | _ -> (
        match tick_opt loop with
        | Some reason -> Budget.Exhausted (cands_of survivors, reason)
        | None -> (
          pass_started loop ~base ~index ~survivors:(List.length survivors);
          let assumptions = List.filter_map (fun (_, _, s) -> s) survivors in
          Tseitin.push ctx;
          Tseitin.assert_clause ctx
            (List.map (fun (_, l, _) -> Tseitin.not_ l) survivors);
          let next =
            match solve_metered ?loop sat assumptions with
            | Sat.Unsat -> `Fixpoint
            | Sat.Unknown r -> `Aborted (Loop.reason_of_sat r)
            | Sat.Sat ->
              `Survivors
                (List.filter
                   (fun (_, l, _) -> Tseitin.lit_of_model ctx l)
                   survivors)
          in
          Tseitin.pop ctx;
          match next with
          | `Fixpoint -> Budget.Converged (cands_of survivors)
          | `Aborted reason -> Budget.Exhausted (cands_of survivors, reason)
          | `Survivors remaining ->
            pass_dropped loop ~before:(List.length survivors)
              ~after:(List.length remaining);
            go (index + 1) remaining))
    in
    go 0 items

let filter_inductive ?loop aig cands =
  Aig.validate aig;
  match fixpoint ?loop aig cands ~base:true with
  | Budget.Exhausted _ as e -> e
  | Budget.Converged after_base -> fixpoint ?loop aig after_base ~base:false

let prove_property ?(k = 1) ?loop aig ~bad ~invariants =
  Aig.validate aig;
  if k < 1 then invalid_arg "Induction.prove_property: k must be positive";
  (* base: no bad state within the first k steps from the initial state *)
  let base =
    Obs.with_span "induction.base" ~attrs:[ ("k", Obs.Int k) ] @@ fun () ->
    let ctx = Tseitin.create () in
    let latch =
      ref (Array.map (fun b -> Tseitin.of_bool ctx b) (Aig.initial_state aig))
    in
    let bads = ref [] in
    for _ = 1 to k do
      let m = encode_frame ctx aig ~latch_lits:!latch in
      bads := lit_of m bad :: !bads;
      latch := next_latch_lits aig m
    done;
    Tseitin.assert_lit ctx (Tseitin.or_list ctx !bads);
    solve_metered ?loop (Tseitin.solver ctx) []
  in
  match base with
  | Sat.Sat -> Cex_in_base
  | Sat.Unknown r -> Aborted (Loop.reason_of_sat r)
  | Sat.Unsat ->
    (* step: k consecutive frames satisfying the invariants and ~bad,
       followed by a bad frame, must be unsatisfiable *)
    Obs.with_span "induction.step"
      ~attrs:
        [ ("k", Obs.Int k); ("invariants", Obs.Int (List.length invariants)) ]
    @@ fun () ->
    let ctx = Tseitin.create () in
    let latch =
      ref (Array.init (Aig.num_latches aig) (fun _ -> Tseitin.fresh ctx))
    in
    for _ = 1 to k do
      let m = encode_frame ctx aig ~latch_lits:!latch in
      List.iter
        (fun c -> Tseitin.assert_lit ctx (candidate_lit ctx m c))
        invariants;
      Tseitin.assert_lit ctx (Smt.Lit.neg (lit_of m bad));
      latch := next_latch_lits aig m
    done;
    let m_last = encode_frame ctx aig ~latch_lits:!latch in
    Tseitin.assert_lit ctx (lit_of m_last bad);
    (match solve_metered ?loop (Tseitin.solver ctx) [] with
    | Sat.Unsat -> Proved
    | Sat.Sat -> Unknown
    | Sat.Unknown r -> Aborted (Loop.reason_of_sat r))
