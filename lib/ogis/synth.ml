module Bv = Smt.Bv
module Solver = Smt.Solver

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

(* Candidate-vs-counterexample re-checking. Sequentially only the new
   example needs evaluating (the synthesis solver guarantees consistency
   with every older one); with a pool the whole example set is re-checked
   concurrently — [Straightline.eval] is pure, so the chunked fan-out is
   safe and the verdict identical. *)
let candidate_holds ?pool cand ex examples =
  let agrees (ins, outs) = Straightline.eval cand ins = outs in
  match pool with
  | Some pool when Par.Pool.jobs pool > 1 ->
    Array.for_all Fun.id
      (Par.map pool agrees (Array.of_list (ex :: examples)))
  | _ -> agrees ex

let synthesize ?(max_iterations = 64) ?initial_inputs ?pool
    ?(budget = Budget.unlimited) (spec : Encode.spec) oracle =
  let meter = Budget.start budget in
  let lp =
    Obs.Loop.start "ogis"
      ~attrs:
        [
          ("width", Obs.Int spec.Encode.width);
          ("ninputs", Obs.Int spec.Encode.ninputs);
          ("max_iterations", Obs.Int max_iterations);
        ]
  in
  let queries = ref 0 in
  let ask ins =
    incr queries;
    (ins, oracle ins)
  in
  let finished outcome =
    let st =
      match outcome with Synthesized (_, s) | Unrealizable s -> s
    in
    let label =
      match outcome with
      | Synthesized _ -> "synthesized"
      | Unrealizable _ -> "unrealizable"
    in
    Obs.Loop.finish lp
      ~attrs:
        [
          ("outcome", Obs.String label);
          ("iterations", Obs.Int st.iterations);
          ("oracle_queries", Obs.Int st.oracle_queries);
        ];
    Budget.Converged outcome
  in
  let exhausted ~best stats reason =
    Obs.Loop.budget_exhausted lp
      ~reason:(Budget.reason_to_string reason)
      ~attrs:[ ("iterations", Obs.Int stats.iterations) ];
    Obs.Loop.finish lp
      ~attrs:
        [
          ("outcome", Obs.String "exhausted");
          ("iterations", Obs.Int stats.iterations);
          ("oracle_queries", Obs.Int stats.oracle_queries);
        ];
    Budget.Exhausted { best; stats; reason }
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
  let charged q =
    let c0 = Encode.session_conflicts sess in
    let r = q () in
    Budget.charge_conflicts meter (Encode.session_conflicts sess - c0);
    r
  in
  let rec loop iterations candidate examples =
    let stats () =
      { iterations; oracle_queries = !queries; examples = List.rev examples }
    in
    match
      if iterations >= max_iterations then Some Budget.Iterations
      else Budget.tick meter
    with
    | Some reason -> exhausted ~best:candidate (stats ()) reason
    | None -> (
      Obs.Loop.iteration lp iterations
        ~attrs:[ ("examples", Obs.Int (List.length examples)) ];
      let limits = Smt.Govern.limits_of_meter meter in
      let retained = Option.is_some candidate in
      match
        match candidate with
        | Some c -> `Candidate c
        | None -> charged (fun () -> Encode.next_candidate ~limits sess)
      with
      | `Unrealizable -> finished (Unrealizable (stats ()))
      | `Unknown r ->
        exhausted ~best:candidate (stats ()) (Smt.Govern.reason_of_sat r)
      | `Candidate cand -> (
        Obs.Loop.candidate lp ~attrs:[ ("retained", Obs.Bool retained) ];
        match charged (fun () -> Encode.distinguishing ~limits sess cand) with
        | `Unique ->
          Obs.Loop.verdict lp "unique";
          finished (Synthesized (cand, stats ()))
        | `Unknown r ->
          exhausted ~best:(Some cand) (stats ()) (Smt.Govern.reason_of_sat r)
        | `Input input ->
          Obs.Loop.verdict lp "distinguished";
          let ex = ask input in
          Obs.Loop.counterexample lp;
          Encode.add_example sess ex;
          (* candidate retention: the distinguishing input separates
             the candidate from some alternative, so the oracle's
             answer falsifies at least one of the two — but not
             necessarily the candidate. When the oracle agrees with
             the candidate, only the alternative dies: skip the
             synthesis re-solve and keep the verifier's differs
             constraint in place, so the next distinguishing query is
             a pure strengthening of this one. *)
          let keep = candidate_holds ?pool cand ex examples in
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
