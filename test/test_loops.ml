(* The event streams of the six sciduction loops, pinned. Each run is
   traced into a memory sink and reduced to its loop's events in order:
   the event name, plus the verdict string of an [oracle_verdict], the
   [reason] of a [budget_exhausted] and the [outcome] attribute of a
   [loop_finished] ("-" when the loop reports none). Every loop has one
   converging and one budget-exhausted run. *)

module Json = Obs.Json

let str k r = Option.bind (Json.member k r) Json.to_str

let attr k r =
  Option.bind (Json.member "attrs" r) (fun a ->
      Option.bind (Json.member k a) Json.to_str)

let render r =
  let name = Option.value ~default:"?" (str "name" r) in
  match name with
  | "oracle_verdict" -> name ^ ":" ^ Option.value ~default:"?" (attr "verdict" r)
  | "budget_exhausted" -> name ^ ":" ^ Option.value ~default:"?" (attr "reason" r)
  | "loop_finished" -> name ^ ":" ^ Option.value ~default:"-" (attr "outcome" r)
  | _ -> name

(* runs of one name collapse to [name*count], so a long sweep stays
   readable *)
let compress names =
  let rec go acc = function
    | [] -> List.rev acc
    | n :: rest ->
      let rec count k = function
        | m :: more when m = n -> count (k + 1) more
        | more -> (k, more)
      in
      let k, more = count 1 rest in
      go ((if k = 1 then n else Printf.sprintf "%s*%d" n k) :: acc) more
  in
  String.concat " " (go [] names)

let events ~loop f =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  ignore (f ());
  Obs.shutdown ();
  let evs =
    List.filter
      (fun r -> str "kind" r = Some "event" && str "loop" r = Some loop)
      (records ())
  in
  Obs.reset ();
  List.map render evs

let pin ~loop f expected () =
  Alcotest.(check string) "event stream" expected (compress (events ~loop f))

(* ----- the runs ----- *)

let ogis_spec =
  {
    Ogis.Encode.width = 8;
    ninputs = 1;
    noutputs = 1;
    library = [ Ogis.Component.dec; Ogis.Component.and_ ];
  }

let ogis_oracle = function
  | [ x ] -> [ x land (x - 1) land 0xFF ]
  | _ -> assert false

(* one seed probe, so the loop needs distinguishing inputs *)
let ogis ?budget () =
  Ogis.Synth.synthesize ?budget ~initial_inputs:[ [ 0 ] ] ogis_spec ogis_oracle

let cegar ?budget ts () = Mc.Cegar.verify ?budget ts

let bmc ?budget ts ~max_depth () = Mc.Bmc.sweep ?budget ts ~max_depth

let invgen ?budget () =
  let aig, bad = Invgen.Engine.ring_counter ~n:4 in
  Invgen.Engine.run ?budget aig ~bad

let lstar ?budget () =
  Lstar.Learner.learn_exact ?budget
    ~target:(Lstar.Dfa.of_words ~alphabet:2 [ [ 0; 1; 0 ]; [ 1 ] ])
    ()

let gametime ?budget () =
  let u = Prog.Unroll.unroll ~bound:3 (Prog.Benchmarks.modexp ~bits:3 ()) in
  Gametime.Basis.extract ?budget u (Prog.Cfg.of_program u)

let iterations n = Budget.limited ~iterations:n ()
let counter ~bad = Mc.Systems.mod_counter ~bits:3 ~modulus:6 ~bad_value:bad ()

let () =
  Alcotest.run "loops"
    [
      ( "ogis",
        [
          Alcotest.test_case "converges" `Quick
            (pin ~loop:"ogis" ogis
               "loop_started iteration solver_call candidate solver_call \
                oracle_verdict:distinguished counterexample iteration \
                solver_call candidate solver_call oracle_verdict:unique \
                loop_finished:synthesized");
          Alcotest.test_case "exhausted" `Quick
            (pin ~loop:"ogis" (ogis ~budget:(Budget.limited ~conflicts:1 ()))
               "loop_started iteration solver_call \
                budget_exhausted:conflicts loop_finished:exhausted");
        ] );
      ( "cegar",
        [
          Alcotest.test_case "converges" `Quick
            (pin ~loop:"cegar" (cegar Mc.Systems.request_grant)
               "loop_started iteration candidate \
                oracle_verdict:abstract_cex solver_call \
                oracle_verdict:concrete loop_finished:unsafe");
          Alcotest.test_case "exhausted" `Quick
            (pin ~loop:"cegar"
               (cegar ~budget:(iterations 2) (Mc.Systems.shift_register ~len:4))
               "loop_started iteration candidate \
                oracle_verdict:abstract_cex solver_call counterexample \
                budget_exhausted:iterations loop_finished:exhausted");
        ] );
      ( "bmc",
        [
          Alcotest.test_case "converges" `Quick
            (pin ~loop:"bmc" (bmc (counter ~bad:5) ~max_depth:8)
               "loop_started iteration solver_call oracle_verdict:no_cex \
                iteration solver_call oracle_verdict:no_cex iteration \
                solver_call oracle_verdict:no_cex iteration solver_call \
                oracle_verdict:no_cex iteration solver_call \
                oracle_verdict:no_cex iteration solver_call counterexample \
                oracle_verdict:unsafe loop_finished:unsafe");
          Alcotest.test_case "exhausted" `Quick
            (pin ~loop:"bmc"
               (bmc ~budget:(iterations 4) (counter ~bad:7) ~max_depth:8)
               "loop_started iteration solver_call oracle_verdict:no_cex \
                iteration solver_call oracle_verdict:no_cex iteration \
                solver_call oracle_verdict:no_cex \
                budget_exhausted:iterations loop_finished:exhausted");
        ] );
      ( "invgen",
        [
          Alcotest.test_case "converges" `Quick
            (pin ~loop:"invgen" invgen
               "loop_started candidate iteration solver_call iteration \
                solver_call*3 oracle_verdict:proved solver_call*2 \
                loop_finished:proved");
          Alcotest.test_case "exhausted" `Quick
            (pin ~loop:"invgen" (invgen ~budget:(iterations 2))
               "loop_started candidate iteration solver_call \
                budget_exhausted:iterations loop_finished:exhausted");
        ] );
      ( "lstar",
        [
          Alcotest.test_case "converges" `Quick
            (pin ~loop:"lstar" lstar
               "loop_started iteration candidate \
                oracle_verdict:counterexample counterexample iteration \
                candidate oracle_verdict:counterexample counterexample \
                iteration candidate oracle_verdict:equivalent \
                loop_finished:learned");
          Alcotest.test_case "exhausted" `Quick
            (pin ~loop:"lstar" (lstar ~budget:(iterations 2))
               "loop_started iteration candidate \
                oracle_verdict:counterexample counterexample \
                budget_exhausted:iterations loop_finished:exhausted");
        ] );
      ( "gametime",
        [
          Alcotest.test_case "converges" `Quick
            (pin ~loop:"gametime" gametime
               "loop_started iteration candidate solver_call \
                oracle_verdict:feasible iteration candidate solver_call \
                oracle_verdict:feasible iteration candidate solver_call \
                oracle_verdict:feasible iteration*2 candidate solver_call \
                oracle_verdict:feasible loop_finished:rank_bound");
          Alcotest.test_case "exhausted" `Quick
            (pin ~loop:"gametime" (gametime ~budget:(iterations 3))
               "loop_started iteration candidate solver_call \
                oracle_verdict:feasible iteration candidate solver_call \
                oracle_verdict:feasible budget_exhausted:iterations \
                loop_finished:exhausted");
        ] );
    ]
