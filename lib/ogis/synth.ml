module Bv = Smt.Bv
module Solver = Smt.Solver
module Loop = Sciduction.Loop

type oracle = int list -> int list

type stats = {
  iterations : int;
  oracle_queries : int;
  examples : (int list * int list) list;
}

type outcome =
  | Synthesized of Straightline.t * stats
  | Unrealizable of stats

type partial = {
  best : Straightline.t option;
  stats : stats;
  reason : Budget.reason;
}

let synthesize ?(max_iterations = 64) ?initial_inputs
    ?(budget = Budget.unlimited) (spec : Encode.spec) oracle =
  let totals st =
    [
      ("iterations", Obs.Int st.iterations);
      ("oracle_queries", Obs.Int st.oracle_queries);
    ]
  in
  Loop.run "ogis" ~budget ~max_iterations
    ~attrs:
      [
        ("width", Obs.Int spec.Encode.width);
        ("ninputs", Obs.Int spec.Encode.ninputs);
        ("max_iterations", Obs.Int max_iterations);
      ]
    ~finished:(function
      | Synthesized (_, st) ->
        ("outcome", Obs.String "synthesized") :: totals st
      | Unrealizable st -> ("outcome", Obs.String "unrealizable") :: totals st)
    ~exhausted:(fun p ->
      ( p.reason,
        [ ("iterations", Obs.Int p.stats.iterations) ],
        totals p.stats ))
  @@ fun lp ->
  let queries = ref 0 in
  let ask ins =
    incr queries;
    (ins, oracle ins)
  in
  let initial =
    (* deterministic initial probes: a richer starting example set prunes
       most wirings immediately and makes the final uniqueness proof much
       cheaper (Jha et al. seed with random examples for the same reason) *)
    let w = spec.Encode.width in
    let mask = (1 lsl w) - 1 in
    let patterns =
      [
        (fun _ -> 0);
        (fun _ -> 1);
        (fun j -> (0x5555 + j) land mask);
        (fun j -> (0xCC3 * (j + 7)) land mask);
      ]
    in
    Option.value initial_inputs
      ~default:
        (List.map
           (fun f -> List.init spec.Encode.ninputs f)
           patterns)
  in
  (* persistent solvers: each iteration only asserts the new example *)
  let sess = Encode.new_session spec in
  let solve q =
    Loop.solve lp
      ~conflicts:(fun () -> Encode.session_conflicts sess)
      q
  in
  let rec loop iterations candidate examples =
    let stats () =
      { iterations; oracle_queries = !queries; examples = List.rev examples }
    in
    let exhausted best reason =
      Budget.Exhausted { best; stats = stats (); reason }
    in
    match Loop.tick lp with
    | Some reason -> exhausted candidate reason
    | None -> (
      Loop.iteration lp iterations
        ~attrs:[ ("examples", Obs.Int (List.length examples)) ];
      let retained = Option.is_some candidate in
      match
        match candidate with
        | Some c -> `Candidate c
        | None -> solve (fun limits -> Encode.next_candidate ~limits sess)
      with
      | `Unrealizable -> Budget.Converged (Unrealizable (stats ()))
      | `Unknown r -> exhausted candidate (Loop.reason_of_sat r)
      | `Candidate cand -> (
        Loop.candidate lp ~attrs:[ ("retained", Obs.Bool retained) ];
        match solve (fun limits -> Encode.distinguishing ~limits sess cand) with
        | `Unique ->
          Loop.verdict lp "unique";
          Budget.Converged (Synthesized (cand, stats ()))
        | `Unknown r -> exhausted (Some cand) (Loop.reason_of_sat r)
        | `Input input ->
          Loop.verdict lp "distinguished";
          let ex = ask input in
          Loop.counterexample lp;
          Encode.add_example sess ex;
          (* candidate retention: the distinguishing input separates
             the candidate from some alternative, so the oracle's
             answer falsifies at least one of the two — but not
             necessarily the candidate. When the oracle agrees with
             the candidate, only the alternative dies: skip the
             synthesis re-solve and keep the verifier's differs
             constraint in place, so the next distinguishing query is
             a pure strengthening of this one. Only the new example
             needs checking: the synthesis solver already made the
             candidate consistent with every older one. *)
          let keep = Straightline.eval cand (fst ex) = snd ex in
          loop (iterations + 1)
            (if keep then Some cand else None)
            (ex :: examples)))
  in
  let seed = List.map ask initial in
  List.iter (Encode.add_example sess) seed;
  loop 0 None seed

let verify_against (spec : Encode.spec) prog ~spec_fn =
  let w = spec.Encode.width in
  let inputs =
    List.init spec.Encode.ninputs (fun j ->
        Bv.var ~width:w (Printf.sprintf "cx%d" j))
  in
  let got = Straightline.to_terms prog inputs in
  let want = spec_fn inputs in
  if List.length got <> List.length want then
    invalid_arg "Synth.verify_against: output arity mismatch";
  let differs = Bv.disj (List.map2 Bv.neq got want) in
  (* unbudgeted one-shot: Unknown is only possible under fault injection,
     so a bounded retry always converges in practice *)
  let rec go retries =
    match Solver.check_formulas [ differs ] with
    | `Unsat -> Ok ()
    | `Sat env ->
      Error
        (List.init spec.Encode.ninputs (fun j ->
             env.Bv.bv (Printf.sprintf "cx%d" j)))
    | `Unknown _ when retries > 0 -> go (retries - 1)
    | `Unknown r ->
      failwith
        ("Synth.verify_against: no verdict (" ^ Smt.Sat.reason_to_string r ^ ")")
  in
  go 3
