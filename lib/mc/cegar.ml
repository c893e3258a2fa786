type result =
  | Safe of {
      visible : int list;
      iterations : int;
      abstract_latches : int;
    }
  | Unsafe of {
      trace : bool array list;
      iterations : int;
    }

type refinement =
  | Most_referenced
  | Decision_tree of { samples : int; seed : int }

(* states reachable by random walks, as negative examples *)
let sample_reachable (ts : Ts.t) ~samples ~seed =
  let rng = Random.State.make [| seed |] in
  let acc = ref [] in
  for _ = 1 to samples do
    let state = ref (Array.copy ts.Ts.init) in
    let steps = Random.State.int rng 32 in
    for _ = 1 to steps do
      let input =
        Array.init ts.Ts.num_inputs (fun _ -> Random.State.bool rng)
      in
      state := Ts.step ts ~state:!state ~input
    done;
    acc := Array.copy !state :: !acc
  done;
  !acc

(* models of the bad predicate, as positive examples *)
let sample_bad (ts : Ts.t) ~samples =
  let ctx = Smt.Tseitin.create () in
  let latch = Array.init ts.Ts.num_latches (fun _ -> Smt.Tseitin.fresh ctx) in
  Smt.Tseitin.assert_lit ctx (Bmc.compile ctx ~state:latch ~input:[||] ts.Ts.bad);
  let sat = Smt.Tseitin.solver ctx in
  let acc = ref [] in
  (try
     for _ = 1 to samples do
       match Smt.Sat.solve_with_assumptions sat [] with
       (* Unknown: stop sampling — fewer positive examples only weakens
          the learned refinement hint, never soundness *)
       | Smt.Sat.Unsat | Smt.Sat.Unknown _ -> raise Exit
       | Smt.Sat.Sat ->
         let model =
           Array.map (fun l -> Smt.Tseitin.lit_of_model ctx l) latch
         in
         acc := model :: !acc;
         (* block this model *)
         Smt.Tseitin.assert_clause ctx
           (Array.to_list
              (Array.mapi
                 (fun i l -> if model.(i) then Smt.Lit.neg l else l)
                 latch))
     done
   with Exit -> ());
  !acc

(* the hidden latch that best separates reachable from bad states, by
   decision-tree induction (Gupta-style learning for refinement) *)
let decision_tree_candidates (ts : Ts.t) ~visible ~samples ~seed =
  let reachable = sample_reachable ts ~samples ~seed in
  let bad = sample_bad ts ~samples in
  if bad = [] then []
  else begin
    let examples =
      List.map (fun s -> (s, false)) reachable
      @ List.map (fun s -> (s, true)) bad
    in
    let tree = Sciduction.Dtree.learn ~nfeatures:ts.Ts.num_latches examples in
    List.filter
      (fun f -> not (List.mem f visible))
      (Sciduction.Dtree.features_used tree)
  end

let bad_support (ts : Ts.t) =
  let latches = Array.make ts.Ts.num_latches false in
  let inputs = Array.make (max ts.Ts.num_inputs 1) false in
  Ts.support ts.Ts.bad ~latches ~inputs;
  let acc = ref [] in
  for i = ts.Ts.num_latches - 1 downto 0 do
    if latches.(i) then acc := i :: !acc
  done;
  !acc

type partial = {
  visible : int list;
  iterations : int;
  reason : Budget.reason;
}

let verify ?initial_visible ?(max_iterations = 64)
    ?(refinement = Most_referenced) ?(budget = Budget.unlimited) (ts : Ts.t) =
  let initial = Option.value initial_visible ~default:(bad_support ts) in
  let meter = Budget.start budget in
  let lp =
    Obs.Loop.start "cegar"
      ~attrs:
        [
          ("latches", Obs.Int ts.Ts.num_latches);
          ("inputs", Obs.Int ts.Ts.num_inputs);
        ]
  in
  let exhaust ~visible ~iterations reason =
    Obs.Loop.budget_exhausted lp
      ~reason:(Budget.reason_to_string reason)
      ~attrs:[ ("iterations", Obs.Int iterations) ];
    Obs.Loop.finish lp ~attrs:[ ("outcome", Obs.String "exhausted") ];
    Budget.Exhausted { visible; iterations; reason }
  in
  (* one BMC session answers every spuriousness check of the loop *)
  let bmc = Bmc.new_session ts in
  let concretize ~depth =
    let limits = Smt.Govern.limits_of_meter meter in
    let c0 = Bmc.session_conflicts bmc in
    let q = Bmc.check_depth ~limits bmc ~depth in
    Budget.charge_conflicts meter (Bmc.session_conflicts bmc - c0);
    q
  in
  let rec loop visible iterations =
    match
      if iterations >= max_iterations then Some Budget.Iterations
      else Budget.tick meter
    with
    | Some reason -> exhaust ~visible ~iterations reason
    | None -> real_loop visible iterations
  and real_loop visible iterations =
    Obs.Loop.iteration lp iterations
      ~attrs:[ ("visible", Obs.Int (List.length visible)) ];
    let a = Abstraction.localize ts ~visible in
    (* the abstraction is this loop's candidate: a localization that may
       or may not prove the property *)
    Obs.Loop.candidate lp
      ~attrs:[ ("visible", Obs.Int (List.length visible)) ];
    match Reach.check a.Abstraction.abstract with
    | Reach.Safe _ ->
      Obs.Loop.verdict lp "abstract_safe";
      Obs.Loop.finish lp ~attrs:[ ("outcome", Obs.String "safe") ];
      Budget.Converged
        (Safe
           {
             visible;
             iterations = iterations + 1;
             abstract_latches = List.length visible;
           })
    | Reach.Cex abstract_trace -> (
      let depth = List.length abstract_trace in
      Obs.Loop.verdict lp "abstract_cex" ~attrs:[ ("depth", Obs.Int depth) ];
      match concretize ~depth with
      | `Cex trace ->
        assert (Reach.replay ts trace);
        Obs.Loop.verdict lp "concrete";
        Obs.Loop.finish lp ~attrs:[ ("outcome", Obs.String "unsafe") ];
        Budget.Converged (Unsafe { trace; iterations = iterations + 1 })
      | `Unknown r ->
        (* without the spuriousness verdict the loop can neither report
           Unsafe nor refine; stop with the abstraction proved so far *)
        exhaust ~visible ~iterations:(iterations + 1)
          (Smt.Govern.reason_of_sat r)
      | `No_cex -> (
        (* abstract counterexample refuted by BMC: a spurious cex is the
           counterexample that drives refinement *)
        Obs.Loop.counterexample lp ~attrs:[ ("depth", Obs.Int depth) ];
        (* pick a hidden latch to reveal *)
        let hidden_all =
          List.filter
            (fun i -> not (List.mem i visible))
            (List.init ts.Ts.num_latches Fun.id)
        in
        let strategy_candidates =
          match refinement with
          | Most_referenced -> Abstraction.referenced_hidden a
          | Decision_tree { samples; seed } ->
            decision_tree_candidates ts ~visible ~samples
              ~seed:(seed + iterations)
        in
        let candidates =
          match strategy_candidates with [] -> hidden_all | cs -> cs
        in
        match candidates with
        | [] ->
          Obs.Loop.finish lp
            ~attrs:[ ("outcome", Obs.String "refinement_stuck") ];
          failwith "Cegar.verify: spurious counterexample but nothing to refine"
        | pick :: _ -> loop (List.sort compare (pick :: visible)) (iterations + 1)))
  in
  loop initial 0
