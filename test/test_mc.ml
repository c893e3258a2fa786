(* Tests for the CEGAR instance: transition systems, explicit-state
   reachability, localization abstraction, SAT-based BMC, and the full
   refinement loop of Fig. 3. *)

module Ts = Mc.Ts
module Reach = Mc.Reach
module Abstraction = Mc.Abstraction
module Bmc = Mc.Bmc
module Cegar = Mc.Cegar
module Systems = Mc.Systems

(* ------------------------------------------------------------------ *)
(* Transition systems                                                  *)
(* ------------------------------------------------------------------ *)

let test_ts_eval () =
  let e = Ts.And (Ts.V 0, Ts.Or (Ts.In 0, Ts.Not (Ts.V 1))) in
  let eval s i = Ts.eval e ~state:s ~input:i in
  Alcotest.(check bool) "true case" true (eval [| true; false |] [| false |]);
  Alcotest.(check bool) "input flips it" true (eval [| true; true |] [| true |]);
  Alcotest.(check bool) "false case" false (eval [| true; true |] [| false |]);
  Alcotest.(check bool) "v0 gates" false (eval [| false; false |] [| true |])

let test_ts_validation () =
  Alcotest.check_raises "latch range" (Invalid_argument "Ts: latch out of range")
    (fun () ->
      ignore
        (Ts.make ~name:"x" ~num_latches:1 ~num_inputs:0 ~init:[| false |]
           ~next:[| Ts.V 3 |] ~bad:Ts.F))

let test_counter_step () =
  let t = Systems.mod_counter ~bits:3 ~modulus:6 ~bad_value:7 () in
  let s = ref t.Ts.init in
  for _ = 1 to 7 do
    s := Ts.step t ~state:!s ~input:[| true |]
  done;
  (* 7 enabled steps mod 6 = state 1 *)
  Alcotest.(check (array bool)) "wraps at 6" [| true; false; false |] !s;
  let s' = Ts.step t ~state:!s ~input:[| false |] in
  Alcotest.(check (array bool)) "disabled holds" !s s'

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

let test_reach_unsafe_counter () =
  let t = Systems.mod_counter ~bits:3 ~modulus:8 ~bad_value:5 () in
  match Reach.check t with
  | Reach.Cex trace ->
    Alcotest.(check int) "shortest trace" 5 (List.length trace);
    Alcotest.(check bool) "replay reaches bad" true (Reach.replay t trace)
  | Reach.Safe _ -> Alcotest.fail "counter reaches 5"

let test_reach_safe_counter () =
  let t = Systems.mod_counter ~bits:3 ~modulus:6 ~bad_value:7 () in
  match Reach.check t with
  | Reach.Safe { states_explored } ->
    Alcotest.(check bool) "explored the mod-6 orbit" true (states_explored >= 6)
  | Reach.Cex _ -> Alcotest.fail "7 is unreachable modulo 6"

let test_reach_initial_bad () =
  let t = Systems.mod_counter ~bits:2 ~modulus:4 ~bad_value:0 () in
  match Reach.check t with
  | Reach.Cex [] -> ()
  | _ -> Alcotest.fail "initial state is bad"

(* Breadth-first search that steps every state under every valuation of
   every input, read or not: the oracle [Reach.check] must match answer
   for answer, trace input for trace input. *)
let reference_reach (t : Ts.t) =
  let pack state =
    let v = ref 0 in
    Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) state;
    !v
  in
  let of_code n code = Array.init n (fun i -> code land (1 lsl i) <> 0) in
  let parent = Hashtbl.create 64 in
  let init_code = pack t.Ts.init in
  Hashtbl.replace parent init_code (init_code, 0);
  let queue = Queue.create () in
  Queue.add init_code queue;
  let trace_to code =
    let rec go code acc =
      let pred, inp = Hashtbl.find parent code in
      if pred = code then acc else go pred (of_code t.Ts.num_inputs inp :: acc)
    in
    go code []
  in
  let explored = ref 0 and result = ref None in
  while !result = None && not (Queue.is_empty queue) do
    let code = Queue.pop queue in
    incr explored;
    let state = of_code t.Ts.num_latches code in
    if Ts.is_bad t state then result := Some (Reach.Cex (trace_to code))
    else
      for inp = 0 to (1 lsl t.Ts.num_inputs) - 1 do
        let input = of_code t.Ts.num_inputs inp in
        let succ = pack (Ts.step t ~state ~input) in
        if not (Hashtbl.mem parent succ) then begin
          Hashtbl.replace parent succ (code, inp);
          Queue.add succ queue
        end
      done
  done;
  match !result with
  | Some r -> r
  | None -> Reach.Safe { states_explored = !explored }

let successors () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "mc.reach_successors")

(* The junk-11 abstraction has 13 inputs, but its next-state functions
   read only the counter's enable: two successors per expanded state,
   not 8,192. *)
let test_reach_enumerates_read_inputs () =
  let t = Systems.mod_counter ~junk:11 ~bits:3 ~modulus:6 ~bad_value:7 () in
  let a = Abstraction.localize t ~visible:[ 0; 1; 2 ] in
  Alcotest.(check int) "abstract inputs" 13 a.Abstraction.abstract.Ts.num_inputs;
  let s0 = successors () in
  match Reach.check a.Abstraction.abstract with
  | Reach.Safe { states_explored } ->
    let evaluated = successors () - s0 in
    Alcotest.(check bool)
      (Printf.sprintf "%d successors for %d states" evaluated states_explored)
      true
      (evaluated > 0 && evaluated <= 2 * states_explored)
  | Reach.Cex _ -> Alcotest.fail "counter logic alone proves safety"

(* The 16-input limit counts the inputs the model reads: 17 declared
   inputs of which 16 are read is a search, 17 read ones are refused. *)
let test_reach_input_limit_counts_reads () =
  let parity reads =
    Ts.make ~name:"parity" ~num_latches:1 ~num_inputs:17 ~init:[| false |]
      ~next:[| List.fold_left (fun e i -> Ts.Xor (e, Ts.In i)) Ts.F reads |]
      ~bad:Ts.F
  in
  (match Reach.check (parity (List.init 16 Fun.id)) with
  | Reach.Safe { states_explored } ->
    Alcotest.(check int) "both parities" 2 states_explored
  | Reach.Cex _ -> Alcotest.fail "bad is false");
  Alcotest.check_raises "17 read inputs"
    (Invalid_argument "Reach.check: too many inputs for explicit search")
    (fun () -> ignore (Reach.check (parity (List.init 17 Fun.id))))

(* ------------------------------------------------------------------ *)
(* Abstraction                                                         *)
(* ------------------------------------------------------------------ *)

let test_localization_overapproximates () =
  (* hiding latches must not make an unsafe system look safe *)
  let t = Systems.mod_counter ~bits:3 ~modulus:8 ~bad_value:5 () in
  let a = Abstraction.localize t ~visible:[ 0; 2 ] in
  (match Reach.check a.Abstraction.abstract with
  | Reach.Cex _ -> ()
  | Reach.Safe _ -> Alcotest.fail "abstraction lost a concrete cex");
  Alcotest.(check int) "abstract latch count" 2
    a.Abstraction.abstract.Ts.num_latches;
  Alcotest.(check int) "hidden latch became an input" 2
    a.Abstraction.abstract.Ts.num_inputs

let test_localization_junk_invisible () =
  let t = Systems.mod_counter ~junk:6 ~bits:3 ~modulus:6 ~bad_value:7 () in
  let a = Abstraction.localize t ~visible:[ 0; 1; 2 ] in
  match Reach.check a.Abstraction.abstract with
  | Reach.Safe _ -> ()
  | Reach.Cex _ -> Alcotest.fail "counter logic alone proves safety"

let test_referenced_hidden () =
  let t = Systems.mod_counter ~bits:3 ~modulus:8 ~bad_value:5 () in
  let a = Abstraction.localize t ~visible:[ 2 ] in
  (* latch 2's next function and the bad predicate mention latches 0, 1 *)
  Alcotest.(check (list int)) "refinement candidates" [ 0; 1 ]
    (List.sort compare (Abstraction.referenced_hidden a))

(* ------------------------------------------------------------------ *)
(* BMC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_bmc_finds_cex () =
  let t = Systems.mod_counter ~bits:3 ~modulus:8 ~bad_value:5 () in
  (match Bmc.check t ~depth:4 with
  | `No_cex -> ()
  | `Cex _ -> Alcotest.fail "bad_value 5 needs 5 steps"
  | `Unknown _ -> Alcotest.fail "unexpected unknown");
  match Bmc.check t ~depth:5 with
  | `Cex trace ->
    Alcotest.(check int) "length" 5 (List.length trace);
    Alcotest.(check bool) "replays" true (Reach.replay t trace)
  | `No_cex | `Unknown _ -> Alcotest.fail "cex exists at depth 5"

let test_bmc_safe () =
  let t = Systems.mod_counter ~bits:3 ~modulus:6 ~bad_value:7 () in
  Alcotest.(check bool) "no cex at any tested depth" true
    (Bmc.check t ~depth:20 = `No_cex)

(* The level-0 sweep of the clause arena waits until propagation has
   done as much work as the sweep costs. An incremental BMC sweep pops
   its query scope, and so adds a root unit, before every solve; the
   arena is still swept far less often than it is solved. *)
let test_bmc_sweeps_amortised () =
  let t = Systems.mod_counter ~junk:10 ~bits:4 ~modulus:11 ~bad_value:15 () in
  let count name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let solves0 = count "sat.solves" and sweeps0 = count "sat.simplifications" in
  (match Bmc.sweep t ~max_depth:200 with
  | Budget.Converged None -> ()
  | _ -> Alcotest.fail "the system is clean to depth 200");
  let solves = count "sat.solves" - solves0
  and sweeps = count "sat.simplifications" - sweeps0 in
  Alcotest.(check bool) "one solve per depth" true (solves >= 201);
  Alcotest.(check bool) "the arena was swept" true (sweeps > 0);
  if sweeps * 8 > solves then
    Alcotest.failf "%d sweeps for %d solves" sweeps solves

(* A sweep asks only for the newest frame's bad state, so its encoding
   grows linearly with the depth: doubling the depth at most about
   doubles the gates (with a "bad within 0..d" disjunction built per
   query they grew 3.6x, 25,812 -> 91,712). *)
let test_bmc_sweep_gates_linear () =
  let t = Systems.mod_counter ~junk:10 ~bits:4 ~modulus:11 ~bad_value:15 () in
  let gates max_depth =
    let c = Obs.Metrics.counter "tseitin.gates" in
    let g0 = Obs.Metrics.counter_value c in
    (match Bmc.sweep t ~max_depth with
    | Budget.Converged None -> ()
    | _ -> Alcotest.failf "the system is clean to depth %d" max_depth);
    Obs.Metrics.counter_value c - g0
  in
  let g200 = gates 200 and g400 = gates 400 in
  if g400 * 10 > g200 * 22 then
    Alcotest.failf "depth 200: %d gates, depth 400: %d gates" g200 g400

(* The sweep's search also grows linearly: each exact-depth query is
   about as hard as the last, so doubling the depth about doubles the
   propagations (181,090 against 89,517 here). A decision order that
   revisits old frames' variables before the newest frame's would make
   the deep sweep's search grow much faster. *)
let test_bmc_sweep_search_linear () =
  let t = Systems.mod_counter ~junk:40 ~bits:3 ~modulus:6 ~bad_value:7 () in
  let propagations max_depth =
    let p0 = (Smt.Sat.global_stats ()).Smt.Sat.g_propagations in
    (match Bmc.sweep t ~max_depth with
    | Budget.Converged None -> ()
    | _ -> Alcotest.failf "the system is clean to depth %d" max_depth);
    (Smt.Sat.global_stats ()).Smt.Sat.g_propagations - p0
  in
  let p400 = propagations 400 in
  let p200 = propagations 200 in
  if p400 * 10 > p200 * 25 then
    Alcotest.failf "depth 200: %d propagations, depth 400: %d" p200 p400

(* A false start claim is a typed error, not a reported counterexample:
   this system is bad from step 2 on, so the exact-depth query at the
   claimed start replays into the shallower bad state. *)
let test_bmc_false_start_raises () =
  let t =
    Ts.make ~name:"sticky" ~num_latches:2 ~num_inputs:0
      ~init:[| false; false |] ~next:[| Ts.T; Ts.V 0 |] ~bad:(Ts.V 1)
  in
  (match Bmc.sweep t ~max_depth:8 with
  | Budget.Converged (Some (2, _)) -> ()
  | _ -> Alcotest.fail "the honest sweep finds depth 2");
  Alcotest.check_raises "start 5 over a depth-2 cex"
    (Bmc.False_start { start = 5; depth = 2 })
    (fun () ->
      ignore (Bmc.sweep_session ~start:5 (Bmc.new_session t) ~max_depth:8))

(* A loop that raises still finishes: with tracing on, the false start
   above ends its loop with [outcome = "raised"] and pops it, so later
   solver calls on this domain are not attributed to a dead loop. *)
let test_bmc_raise_finishes_loop () =
  let t =
    Ts.make ~name:"sticky" ~num_latches:2 ~num_inputs:0
      ~init:[| false; false |] ~next:[| Ts.T; Ts.V 0 |] ~bad:(Ts.V 1)
  in
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  (match Bmc.sweep_session ~start:5 (Bmc.new_session t) ~max_depth:8 with
  | _ -> Alcotest.fail "the false start should raise"
  | exception Bmc.False_start _ -> ());
  let current = Obs.current_loop () in
  Obs.shutdown ();
  let field k r = Option.bind (Obs.Json.member k r) Obs.Json.to_str in
  let finished =
    List.filter
      (fun r -> field "name" r = Some "loop_finished")
      (records ())
  in
  Obs.reset ();
  Alcotest.(check string) "no loop left open" "" current;
  match finished with
  | [ r ] ->
    Alcotest.(check (option string)) "outcome" (Some "raised")
      (Option.bind (Obs.Json.member "attrs" r) (field "outcome"))
  | _ -> Alcotest.fail "the raising sweep must finish its loop once"

let test_bmc_agrees_with_reach () =
  (* differential: BMC at a generous depth agrees with explicit search *)
  List.iter
    (fun t ->
      let r = Reach.check t in
      let b = Bmc.check t ~depth:12 in
      match (r, b) with
      | _, `Unknown _ -> Alcotest.failf "%s: unexpected unknown" t.Ts.name
      | Reach.Safe _, `No_cex -> ()
      | Reach.Cex _, `Cex _ -> ()
      | Reach.Safe _, `Cex _ -> Alcotest.failf "%s: BMC invented a cex" t.Ts.name
      | Reach.Cex tr, `No_cex when List.length tr > 12 -> ()
      | Reach.Cex _, `No_cex -> Alcotest.failf "%s: BMC missed a cex" t.Ts.name)
    [
      Systems.mod_counter ~bits:3 ~modulus:8 ~bad_value:5 ();
      Systems.mod_counter ~bits:3 ~modulus:6 ~bad_value:7 ();
      Systems.mod_counter ~bits:2 ~modulus:3 ~bad_value:2 ();
      Systems.shift_register ~len:4;
      Systems.request_grant;
    ]

(* ------------------------------------------------------------------ *)
(* CEGAR                                                               *)
(* ------------------------------------------------------------------ *)

let test_cegar_safe_with_small_abstraction () =
  let t = Systems.mod_counter ~junk:8 ~bits:3 ~modulus:6 ~bad_value:7 () in
  match Cegar.verify t with
  | Budget.Converged (Cegar.Safe { abstract_latches; _ }) ->
    Alcotest.(check bool)
      (Printf.sprintf "junk latches stay hidden (visible=%d)" abstract_latches)
      true (abstract_latches <= 3)
  | Budget.Converged (Cegar.Unsafe _) -> Alcotest.fail "system is safe"
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let test_cegar_safe_junk18 () =
  let t = Systems.mod_counter ~junk:18 ~bits:3 ~modulus:6 ~bad_value:7 () in
  match Cegar.verify t with
  | Budget.Converged (Cegar.Safe { abstract_latches; _ }) ->
    Alcotest.(check int) "visible latches" 3 abstract_latches
  | Budget.Converged (Cegar.Unsafe _) -> Alcotest.fail "system is safe"
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let test_cegar_unsafe_validated () =
  let t = Systems.mod_counter ~junk:4 ~bits:3 ~modulus:8 ~bad_value:5 () in
  match Cegar.verify t with
  | Budget.Converged (Cegar.Unsafe { trace; _ }) ->
    Alcotest.(check bool) "trace replays concretely" true (Reach.replay t trace)
  | Budget.Converged (Cegar.Safe _) -> Alcotest.fail "system is unsafe"
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let test_cegar_request_grant () =
  match Cegar.verify Systems.request_grant with
  | Budget.Converged (Cegar.Unsafe { trace; _ }) ->
    Alcotest.(check int) "two-step bug" 2 (List.length trace)
  | Budget.Converged (Cegar.Safe _) -> Alcotest.fail "arbiter bug must be found"
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let test_cegar_refines_shift_register () =
  (* the property needs the whole chain: CEGAR must refine all the way *)
  let t = Systems.shift_register ~len:5 in
  match Cegar.verify t with
  | Budget.Converged (Cegar.Safe { abstract_latches; iterations; _ }) ->
    Alcotest.(check bool) "needed several refinements" true (iterations >= 3);
    Alcotest.(check bool) "most latches visible" true (abstract_latches >= 5)
  | Budget.Converged (Cegar.Unsafe _) ->
    Alcotest.fail "shift register is safe"
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let test_dtree_candidates_rank_relevant_latches () =
  (* counter bits separate reachable from bad states; junk latches do not *)
  let t = Systems.mod_counter ~junk:5 ~bits:3 ~modulus:8 ~bad_value:5 () in
  match Cegar.decision_tree_candidates t ~visible:[] ~samples:64 ~seed:3 with
  | [] -> Alcotest.fail "no candidates"
  | first :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "top candidate %d is a counter bit" first)
      true (first < 3)

let test_cegar_decision_tree_strategy () =
  (* differential: the learning-based refinement reaches the same
     verdicts as the syntactic one *)
  List.iter
    (fun t ->
      let verdict = function
        | Budget.Converged (Cegar.Safe _) -> `Safe
        | Budget.Converged (Cegar.Unsafe _) -> `Unsafe
        | Budget.Exhausted _ -> `Exhausted
      in
      let expected = verdict (Cegar.verify t) in
      let got =
        verdict
          (Cegar.verify
             ~refinement:(Cegar.Decision_tree { samples = 64; seed = 1 })
             t)
      in
      if expected <> got then Alcotest.failf "%s: strategies disagree" t.Ts.name)
    [
      Systems.mod_counter ~junk:4 ~bits:3 ~modulus:6 ~bad_value:7 ();
      Systems.mod_counter ~bits:3 ~modulus:8 ~bad_value:5 ();
      Systems.shift_register ~len:4;
      Systems.request_grant;
    ]

let test_cegar_agrees_with_reach () =
  List.iter
    (fun t ->
      let expected =
        match Reach.check t with Reach.Safe _ -> `Safe | Reach.Cex _ -> `Unsafe
      in
      let got =
        match Cegar.verify t with
        | Budget.Converged (Cegar.Safe _) -> `Safe
        | Budget.Converged (Cegar.Unsafe _) -> `Unsafe
        | Budget.Exhausted _ -> `Exhausted
      in
      if expected <> got then Alcotest.failf "%s: CEGAR disagrees" t.Ts.name)
    [
      Systems.mod_counter ~bits:4 ~modulus:11 ~bad_value:9 ();
      Systems.mod_counter ~bits:4 ~modulus:11 ~bad_value:12 ();
      Systems.mod_counter ~junk:3 ~bits:2 ~modulus:4 ~bad_value:3 ();
      Systems.shift_register ~len:3;
      Systems.request_grant;
    ]

(* ------------------------------------------------------------------ *)
(* Random transition systems: the three engines must agree             *)
(* ------------------------------------------------------------------ *)

let gen_ts =
  QCheck2.Gen.(
    let* num_latches = int_range 2 4 in
    let* num_inputs = int_range 1 2 in
    let gen_expr =
      sized_size (int_range 0 3) @@ fix (fun self n ->
          if n = 0 then
            oneof
              [
                oneofl [ Ts.T; Ts.F ];
                (let* i = int_range 0 (num_latches - 1) in
                 return (Ts.V i));
                (let* i = int_range 0 (num_inputs - 1) in
                 return (Ts.In i));
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                (let* a = sub in
                 return (Ts.Not a));
                (let* a = sub and* b = sub in
                 let* op =
                   oneofl
                     [
                       (fun a b -> Ts.And (a, b));
                       (fun a b -> Ts.Or (a, b));
                       (fun a b -> Ts.Xor (a, b));
                     ]
                 in
                 return (op a b));
              ])
    in
    let gen_state_expr =
      (* bad must not mention inputs *)
      sized_size (int_range 0 3) @@ fix (fun self n ->
          if n = 0 then
            oneof
              [
                oneofl [ Ts.T; Ts.F ];
                (let* i = int_range 0 (num_latches - 1) in
                 return (Ts.V i));
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                (let* a = sub in
                 return (Ts.Not a));
                (let* a = sub and* b = sub in
                 let* op =
                   oneofl
                     [ (fun a b -> Ts.And (a, b)); (fun a b -> Ts.Or (a, b)) ]
                 in
                 return (op a b));
              ])
    in
    let* init = array_size (return num_latches) bool in
    let* next = array_size (return num_latches) gen_expr in
    let* bad = gen_state_expr in
    return (Ts.make ~name:"rand" ~num_latches ~num_inputs ~init ~next ~bad))

let print_ts (t : Ts.t) =
  Format.asprintf "latches=%d inputs=%d bad=%a" t.Ts.num_latches t.Ts.num_inputs
    Ts.pp_expr t.Ts.bad

let prop_engines_agree =
  QCheck2.Test.make ~name:"Reach, BMC and CEGAR agree on random systems"
    ~count:150 ~print:print_ts gen_ts (fun t ->
      let reach = Reach.check t in
      let bmc = Bmc.check t ~depth:20 in
      let cegar = Cegar.verify t in
      (* any counterexample within 2^4 states is found within depth 20 *)
      match (reach, bmc, cegar) with
      | Reach.Safe _, `No_cex, Budget.Converged (Cegar.Safe _) -> true
      | Reach.Cex r, `Cex b, Budget.Converged (Cegar.Unsafe { trace; _ }) ->
        Reach.replay t r && Reach.replay t b && Reach.replay t trace
      | _ -> false)

let prop_localization_sound =
  QCheck2.Test.make
    ~name:"hiding latches never hides a real counterexample" ~count:150
    ~print:print_ts gen_ts (fun t ->
      match Reach.check t with
      | Reach.Safe _ -> true
      | Reach.Cex _ ->
        (* any abstraction must also report a counterexample *)
        let a = Abstraction.localize t ~visible:[ 0 ] in
        (match Reach.check a.Abstraction.abstract with
        | Reach.Cex _ -> true
        | Reach.Safe _ -> false))

(* Mod counters (unsafe when [bad_value < modulus]) and shift
   registers (the safe one of [Systems], or an unsafe variant whose bad
   state is the last stage going high, reachable at depth [len]). *)
let gen_sweep_case =
  QCheck2.Gen.(
    let counter =
      let* bits = int_range 2 4 in
      let* modulus = int_range 2 (1 lsl bits) in
      let* bad_value = int_range 0 ((1 lsl bits) - 1) in
      let* junk = int_range 0 4 in
      return (Systems.mod_counter ~junk ~bits ~modulus ~bad_value ())
    in
    let shift =
      let* len = int_range 1 12 in
      let* unsafe = bool in
      let t = Systems.shift_register ~len in
      return
        (if unsafe then
           Ts.make ~name:(t.Ts.name ^ "-unsafe") ~num_latches:t.Ts.num_latches
             ~num_inputs:t.Ts.num_inputs ~init:t.Ts.init ~next:t.Ts.next
             ~bad:(Ts.V (len - 1))
         else t)
    in
    let* t = oneof [ counter; shift ] in
    let* max_depth = int_range 0 40 in
    let* split = int_range 0 max_depth in
    return (t, max_depth, split))

let prop_sweep_is_first_cex =
  QCheck2.Test.make
    ~name:"sweep answers the first cex depth; a warm split agrees"
    ~count:60
    ~print:(fun (t, max_depth, split) ->
      Printf.sprintf "%s max_depth=%d split=%d" (print_ts t) max_depth split)
    gen_sweep_case
    (fun (t, max_depth, split) ->
      let rec first d =
        if d > max_depth then None
        else
          match Bmc.check t ~depth:d with
          | `Cex _ -> Some d
          | `No_cex -> first (d + 1)
          | `Unknown _ -> QCheck2.Test.fail_report "one-shot check: Unknown"
      in
      let expected = first 0 in
      let agrees = function
        | Budget.Converged None -> expected = None
        | Budget.Converged (Some (d, trace)) ->
          expected = Some d && List.length trace = d && Reach.replay t trace
        | Budget.Exhausted _ -> false
      in
      let one = Bmc.sweep t ~max_depth in
      (* the same range as two sweeps over one session: the second
         resumes at [split], warm, on the first's proved prefix *)
      let warm =
        let sess = Bmc.new_session t in
        if split = 0 then Bmc.sweep_session sess ~max_depth
        else
          match Bmc.sweep_session sess ~max_depth:(split - 1) with
          | Budget.Converged None ->
            Bmc.sweep_session ~start:split sess ~max_depth
          | r -> r
      in
      agrees one && agrees warm)

(* Random systems that declare more inputs than their next-state
   functions read, the read ones scattered among the unread. *)
let gen_sparse_ts =
  QCheck2.Gen.(
    let* num_latches = int_range 1 4 in
    let* num_inputs = int_range 1 6 in
    let* mask = array_size (return num_inputs) bool in
    let readable =
      List.filter (fun i -> mask.(i)) (List.init num_inputs Fun.id)
    in
    let leaf =
      oneof
        ([
           oneofl [ Ts.T; Ts.F ];
           (let* i = int_range 0 (num_latches - 1) in
            return (Ts.V i));
         ]
        @ if readable = [] then [] else [ map (fun i -> Ts.In i) (oneofl readable) ])
    in
    let gen_expr =
      sized_size (int_range 0 4) @@ fix (fun self n ->
          if n = 0 then leaf
          else
            let sub = self (n / 2) in
            oneof
              [
                map (fun a -> Ts.Not a) sub;
                map2 (fun a b -> Ts.And (a, b)) sub sub;
                map2 (fun a b -> Ts.Or (a, b)) sub sub;
                map2 (fun a b -> Ts.Xor (a, b)) sub sub;
              ])
    in
    let* init = array_size (return num_latches) bool in
    let* next = array_size (return num_latches) gen_expr in
    let* bad_latch = int_range 0 (num_latches - 1) in
    let* bad_value = bool in
    let bad = if bad_value then Ts.V bad_latch else Ts.Not (Ts.V bad_latch) in
    return (Ts.make ~name:"sparse" ~num_latches ~num_inputs ~init ~next ~bad))

(* Localizations of junk counters: every hidden latch becomes an input,
   and the visible ones read only some of them. *)
let gen_junk_abstraction =
  QCheck2.Gen.(
    let* bits = int_range 2 4 in
    let* modulus = int_range 1 (1 lsl bits) in
    let* bad_value = int_range 0 ((1 lsl bits) - 1) in
    let* junk = int_range 0 5 in
    let* mask = array_size (return (bits + junk)) bool in
    let visible =
      List.filter (fun i -> mask.(i)) (List.init (bits + junk) Fun.id)
    in
    let t = Systems.mod_counter ~junk ~bits ~modulus ~bad_value () in
    return (Abstraction.localize t ~visible).Abstraction.abstract)

let prop_reach_matches_reference gen name =
  QCheck2.Test.make ~name ~count:200 ~print:print_ts gen (fun t ->
      Reach.check t = reference_reach t)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mc"
    [
      ( "ts",
        [
          Alcotest.test_case "expression evaluation" `Quick test_ts_eval;
          Alcotest.test_case "validation" `Quick test_ts_validation;
          Alcotest.test_case "counter semantics" `Quick test_counter_step;
        ] );
      ( "reach",
        [
          Alcotest.test_case "unsafe counter" `Quick test_reach_unsafe_counter;
          Alcotest.test_case "safe counter" `Quick test_reach_safe_counter;
          Alcotest.test_case "initially bad" `Quick test_reach_initial_bad;
          Alcotest.test_case "enumerates only read inputs" `Quick
            test_reach_enumerates_read_inputs;
          Alcotest.test_case "input limit counts read inputs" `Quick
            test_reach_input_limit_counts_reads;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "over-approximates" `Quick
            test_localization_overapproximates;
          Alcotest.test_case "junk latches hidden" `Quick
            test_localization_junk_invisible;
          Alcotest.test_case "refinement candidates" `Quick
            test_referenced_hidden;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "finds counterexample at the right depth" `Quick
            test_bmc_finds_cex;
          Alcotest.test_case "safe system" `Quick test_bmc_safe;
          Alcotest.test_case "agrees with explicit reachability" `Quick
            test_bmc_agrees_with_reach;
          Alcotest.test_case "arena sweeps amortised" `Quick
            test_bmc_sweeps_amortised;
          Alcotest.test_case "sweep gates grow linearly" `Quick
            test_bmc_sweep_gates_linear;
          Alcotest.test_case "sweep search grows linearly" `Quick
            test_bmc_sweep_search_linear;
          Alcotest.test_case "false start raises" `Quick
            test_bmc_false_start_raises;
          Alcotest.test_case "a raising sweep finishes its loop" `Quick
            test_bmc_raise_finishes_loop;
        ] );
      ( "cegar",
        [
          Alcotest.test_case "safe via small abstraction" `Quick
            test_cegar_safe_with_small_abstraction;
          Alcotest.test_case "safe with 18 junk latches" `Quick
            test_cegar_safe_junk18;
          Alcotest.test_case "unsafe with validated trace" `Quick
            test_cegar_unsafe_validated;
          Alcotest.test_case "arbiter bug" `Quick test_cegar_request_grant;
          Alcotest.test_case "refines when necessary" `Quick
            test_cegar_refines_shift_register;
          Alcotest.test_case "decision-tree candidates rank by relevance"
            `Quick test_dtree_candidates_rank_relevant_latches;
          Alcotest.test_case "decision-tree refinement agrees" `Quick
            test_cegar_decision_tree_strategy;
          Alcotest.test_case "agrees with explicit reachability" `Quick
            test_cegar_agrees_with_reach;
        ] );
      ( "random-systems",
        qsuite
          [
            prop_engines_agree;
            prop_localization_sound;
            prop_sweep_is_first_cex;
            prop_reach_matches_reference gen_sparse_ts
              "Reach matches full enumeration on sparse-input systems";
            prop_reach_matches_reference gen_junk_abstraction
              "Reach matches full enumeration on junk-counter abstractions";
          ] );
    ]
