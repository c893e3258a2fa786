module Loop = Sciduction.Loop

type report = {
  candidates : int;
  proven : Candidates.t list;
  verdict : Induction.verdict;
  verdict_unaided : Induction.verdict;
}

type partial = {
  p_candidates : int;
  survivors : Candidates.t list;
  filtered : bool;
  reason : Budget.reason;
}

let string_of_verdict = function
  | Induction.Proved -> "proved"
  | Induction.Cex_in_base -> "cex_in_base"
  | Induction.Unknown -> "unknown"
  | Induction.Aborted _ -> "aborted"

let run ?frames ?seed ?(budget = Budget.unlimited) aig ~bad =
  Loop.run "invgen" ~budget
    ~attrs:[ ("latches", Obs.Int (Aig.num_latches aig)) ]
    ~finished:(fun r ->
      [
        ("outcome", Obs.String (string_of_verdict r.verdict));
        ("unaided", Obs.String (string_of_verdict r.verdict_unaided));
      ])
    ~exhausted:(fun p ->
      ( p.reason,
        [
          ("survivors", Obs.Int (List.length p.survivors));
          ("filtered", Obs.Bool p.filtered);
        ],
        [] ))
  @@ fun lp ->
  let cands =
    Obs.with_span "invgen.simulate" (fun () ->
        Candidates.from_simulation ?frames ?seed aig)
  in
  let p_candidates = List.length cands in
  (* the simulation-pruned candidate set is this loop's hypothesis *)
  Loop.candidate lp ~attrs:[ ("count", Obs.Int p_candidates) ];
  match Induction.filter_inductive ~loop:lp aig cands with
  | Budget.Exhausted (survivors, reason) ->
    Budget.Exhausted { p_candidates; survivors; filtered = false; reason }
  | Budget.Converged proven -> (
    (* the property check strengthened by the proven invariants, then
       the unaided one for comparison *)
    let prove invariants =
      Induction.prove_property ~loop:lp aig ~bad ~invariants
    in
    let verdict = prove proven in
    Loop.verdict lp (string_of_verdict verdict)
      ~attrs:[ ("proven", Obs.Int (List.length proven)) ];
    let verdict_unaided = prove [] in
    match verdict with
    | Induction.Aborted reason ->
      (* the fixpoint did finish: [survivors] are genuinely inductive
         even though the property check was cut short *)
      Budget.Exhausted
        { p_candidates; survivors = proven; filtered = true; reason }
    | _ ->
      Budget.Converged
        { candidates = p_candidates; proven; verdict; verdict_unaided })

let ring_counter ~n =
  let aig = Aig.create () in
  let ls = List.init n (fun i -> Aig.latch ~init:(i = 0) aig) in
  let arr = Array.of_list ls in
  for i = 0 to n - 1 do
    Aig.connect aig arr.(i) arr.((i + n - 1) mod n)
  done;
  let bad = ref Aig.false_ in
  for i = 0 to n - 1 do
    bad := Aig.or2 aig !bad (Aig.and2 aig arr.(i) arr.((i + 1) mod n))
  done;
  (aig, !bad)

let counter_mod5 () =
  let aig = Aig.create () in
  let b0 = Aig.latch aig and b1 = Aig.latch aig and b2 = Aig.latch aig in
  let at4 = Aig.and2 aig b2 (Aig.and2 aig (Aig.neg b1) (Aig.neg b0)) in
  let gate x = Aig.and2 aig x (Aig.neg at4) in
  Aig.connect aig b0 (gate (Aig.neg b0));
  Aig.connect aig b1 (gate (Aig.xor2 aig b1 b0));
  Aig.connect aig b2 (gate (Aig.xor2 aig b2 (Aig.and2 aig b0 b1)));
  let bad = Aig.and2 aig b2 (Aig.and2 aig b1 b0) in
  (aig, bad)

let twin_registers ~len =
  let aig = Aig.create () in
  let x = Aig.input aig in
  let chain () =
    let stages = List.init len (fun _ -> Aig.latch aig) in
    let rec wire prev = function
      | [] -> prev
      | l :: rest ->
        Aig.connect aig l prev;
        wire l rest
    in
    wire x stages
  in
  let out1 = chain () in
  let out2 = chain () in
  (aig, Aig.xor2 aig out1 out2)

let stuck_bit =
  let aig = Aig.create () in
  let enable = Aig.input aig in
  let stuck = Aig.latch aig in
  (* next = stuck && enable: can never rise from 0 *)
  Aig.connect aig stuck (Aig.and2 aig stuck enable);
  let alarm = Aig.latch aig in
  Aig.connect aig alarm stuck;
  (aig, alarm)
