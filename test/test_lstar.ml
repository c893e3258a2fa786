(* Tests for the L*/assume-guarantee instance: DFA algebra, Angluin's
   algorithm, and the learning-based compositional rule. *)

module Dfa = Lstar.Dfa
module Learner = Lstar.Learner
module Agr = Lstar.Agr

(* parity of symbol-0 occurrences: accepts words with an even count *)
let even_zeros =
  Dfa.make ~alphabet:2 ~start:0
    ~accept:[| true; false |]
    ~delta:[| [| 1; 0 |]; [| 0; 1 |] |]

(* no two consecutive 1s *)
let no_11 =
  Dfa.make ~alphabet:2 ~start:0
    ~accept:[| true; true; false |]
    ~delta:[| [| 0; 1 |]; [| 0; 2 |]; [| 2; 2 |] |]

(* ------------------------------------------------------------------ *)
(* DFA algebra                                                         *)
(* ------------------------------------------------------------------ *)

let test_run_accepts () =
  Alcotest.(check bool) "empty word" true (Dfa.accepts even_zeros []);
  Alcotest.(check bool) "one zero" false (Dfa.accepts even_zeros [ 0 ]);
  Alcotest.(check bool) "two zeros" true (Dfa.accepts even_zeros [ 0; 1; 0 ]);
  Alcotest.(check bool) "11 rejected" false (Dfa.accepts no_11 [ 0; 1; 1 ]);
  Alcotest.(check bool) "101 accepted" true (Dfa.accepts no_11 [ 1; 0; 1 ])

let test_complement () =
  let c = Dfa.complement even_zeros in
  List.iter
    (fun w ->
      Alcotest.(check bool) "flipped" (not (Dfa.accepts even_zeros w))
        (Dfa.accepts c w))
    [ []; [ 0 ]; [ 0; 0 ]; [ 1; 0; 1 ] ]

let test_product () =
  let both = Dfa.inter even_zeros no_11 in
  List.iter
    (fun w ->
      Alcotest.(check bool) "intersection semantics"
        (Dfa.accepts even_zeros w && Dfa.accepts no_11 w)
        (Dfa.accepts both w))
    [ []; [ 0 ]; [ 0; 0 ]; [ 1; 1 ]; [ 0; 1; 0; 1 ]; [ 1; 0; 1 ] ]

let test_emptiness () =
  (match Dfa.find_accepted (Dfa.empty ~alphabet:2) with
  | None -> ()
  | Some _ -> Alcotest.fail "empty language");
  match Dfa.find_accepted (Dfa.inter no_11 (Dfa.complement no_11)) with
  | None -> ()
  | Some _ -> Alcotest.fail "L and not L intersect"

let test_subset () =
  (* words that avoid symbol 1 completely satisfy no_11 *)
  let no_ones =
    Dfa.make ~alphabet:2 ~start:0 ~accept:[| true; false |]
      ~delta:[| [| 0; 1 |]; [| 1; 1 |] |]
  in
  (match Dfa.subset no_ones no_11 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "no-ones subset of no-11");
  match Dfa.subset no_11 no_ones with
  | Error w ->
    Alcotest.(check bool) "witness in difference" true
      (Dfa.accepts no_11 w && not (Dfa.accepts no_ones w))
  | Ok () -> Alcotest.fail "inclusion is strict"

let test_minimize () =
  (* blow up even_zeros with duplicated states via product with universal *)
  let fat = Dfa.inter even_zeros (Dfa.universal ~alphabet:2) in
  let slim = Dfa.minimize fat in
  Alcotest.(check int) "two states suffice" 2 slim.Dfa.num_states;
  match Dfa.equal slim even_zeros with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "minimization changed the language"

let test_of_words () =
  let d = Dfa.of_words ~alphabet:2 [ [ 0; 1 ]; [ 1 ]; [] ] in
  List.iter
    (fun (w, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "word %s" (String.concat "" (List.map string_of_int w)))
        expect (Dfa.accepts d w))
    [ ([], true); ([ 1 ], true); ([ 0; 1 ], true); ([ 0 ], false); ([ 1; 1 ], false) ]

(* ------------------------------------------------------------------ *)
(* L*                                                                  *)
(* ------------------------------------------------------------------ *)

let conv = function
  | Budget.Converged x -> x
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let check_learns target expected_states =
  let h, stats = conv (Learner.learn_exact ~target ()) in
  (match Dfa.equal h target with
  | Ok () -> ()
  | Error w ->
    Alcotest.failf "learned wrong language (cex %s)"
      (String.concat "" (List.map string_of_int w)));
  Alcotest.(check int) "minimal hypothesis" expected_states
    (Dfa.minimize h).Dfa.num_states;
  Alcotest.(check bool) "polynomially many queries" true
    (stats.Learner.membership_queries < 500)

let test_lstar_even_zeros () = check_learns even_zeros 2
let test_lstar_no11 () = check_learns no_11 3

let test_lstar_finite_language () =
  (* minimal DFA: start, "0", "01", one merged accepting state for "010"
     and "1", and the dead state *)
  check_learns (Dfa.of_words ~alphabet:2 [ [ 0; 1; 0 ]; [ 1 ] ]) 5

let test_lstar_universal () = check_learns (Dfa.universal ~alphabet:3) 1

let prop_lstar_random_dfas =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 5 in
      let* accept = array_size (return n) bool in
      let* delta =
        array_size (return n) (array_size (return 2) (int_range 0 (n - 1)))
      in
      return (Dfa.make ~alphabet:2 ~start:0 ~accept ~delta))
  in
  QCheck2.Test.make ~name:"L* learns random DFAs exactly" ~count:60
    ~print:(fun d -> Format.asprintf "%a" Dfa.pp d)
    gen
    (fun target ->
      match Learner.learn_exact ~target () with
      | Budget.Converged (h, _) -> Dfa.equal h target = Ok ()
      | Budget.Exhausted _ -> false)

(* ------------------------------------------------------------------ *)
(* Assume-guarantee                                                    *)
(* ------------------------------------------------------------------ *)

(* alphabet {0 = acquire, 1 = release}: M1 allows anything but enforces
   nothing; M2 always alternates acquire/release; P = no two consecutive
   acquires *)
let alternator =
  Dfa.make ~alphabet:2 ~start:0
    ~accept:[| true; true |]
    ~delta:[| [| 1; 0 |]; [| 1; 0 |] |]

(* M2 proper: alternates, rejects double acquire or stray release *)
let strict_alternator =
  Dfa.make ~alphabet:2 ~start:0
    ~accept:[| true; true; false |]
    ~delta:[| [| 1; 2 |]; [| 2; 0 |]; [| 2; 2 |] |]

let no_double_acquire =
  Dfa.make ~alphabet:2 ~start:0
    ~accept:[| true; true; false |]
    ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 2; 2 |] |]

let test_agr_holds () =
  match
    conv
      (Agr.check ~m1:alternator ~m2:strict_alternator
         ~prop:no_double_acquire ())
  with
  | Agr.Holds { assumption; _ } ->
    (* the assumption must cover M2 and keep M1 safe *)
    (match Dfa.subset strict_alternator assumption with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "premise 2 violated by final assumption");
    (match Dfa.subset (Dfa.inter alternator assumption) no_double_acquire with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "premise 1 violated by final assumption")
  | Agr.Violated _ -> Alcotest.fail "composition satisfies the property"

let test_agr_violated () =
  (* M2 = unconstrained can double-acquire *)
  match
    conv (Agr.check ~m1:alternator ~m2:alternator ~prop:no_double_acquire ())
  with
  | Agr.Violated w ->
    Alcotest.(check bool) "witness is a real violation" true
      (Dfa.accepts alternator w && not (Dfa.accepts no_double_acquire w))
  | Agr.Holds _ -> Alcotest.fail "double acquire is reachable"

let test_weakest_assumption () =
  Alcotest.(check bool) "safe word in WA" true
    (Agr.weakest_assumption_member ~m1:alternator ~prop:no_double_acquire [ 0; 1 ]);
  Alcotest.(check bool) "violating word not in WA" false
    (Agr.weakest_assumption_member ~m1:alternator ~prop:no_double_acquire [ 0; 0 ])

let test_agr_matches_monolithic () =
  (* differential: the rule's verdict equals the direct product check *)
  let cases =
    [
      (alternator, strict_alternator, no_double_acquire);
      (alternator, alternator, no_double_acquire);
      (strict_alternator, alternator, no_double_acquire);
      (no_11, even_zeros, no_11);
      (even_zeros, no_11, Dfa.universal ~alphabet:2);
    ]
  in
  List.iter
    (fun (m1, m2, prop) ->
      let direct = Dfa.subset (Dfa.inter m1 m2) prop = Ok () in
      let agr =
        match conv (Agr.check ~m1 ~m2 ~prop ()) with
        | Agr.Holds _ -> true
        | Agr.Violated _ -> false
      in
      Alcotest.(check bool) "AGR = monolithic" direct agr)
    cases

(* The exact search of L*: hypothesis, query counts and rounds of
   Angluin's pairwise search. Any change to the closedness or
   consistency search order, to the state numbering or to which words
   get asked shows up here. *)

let show_dfa (h : Dfa.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "start %d accept %s delta %s" h.Dfa.start
    (String.concat ""
       (Array.to_list
          (Array.map (fun b -> if b then "1" else "0") h.Dfa.accept)))
    (String.concat " " (Array.to_list (Array.map ints h.Dfa.delta)))

let show_learned target =
  match Learner.learn_exact ~target () with
  | Budget.Converged (h, st) ->
    Printf.sprintf "%s; mq %d eq %d rounds %d" (show_dfa h)
      st.Learner.membership_queries st.Learner.equivalence_queries
      st.Learner.rounds
  | Budget.Exhausted _ -> "exhausted"

(* words over {0,1} whose number of 1s is divisible by n *)
let mod_n n =
  Dfa.make ~alphabet:2 ~start:0
    ~accept:(Array.init n (fun s -> s = 0))
    ~delta:(Array.init n (fun s -> [| s; (s + 1) mod n |]))

(* a random complete DFA over 3 letters with at most 9 states, drawn from
   a fixed LCG so the instance does not depend on the stdlib's Random *)
let lcg_dfa seed =
  let st = ref seed in
  let next k =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    (!st lsr 8) mod k
  in
  let n = 1 + next 9 in
  let accept = Array.init n (fun _ -> next 2 = 1) in
  let delta = Array.init n (fun _ -> Array.init 3 (fun _ -> next n)) in
  Dfa.make ~alphabet:3 ~start:0 ~accept ~delta

let show_agr (m1, m2, prop) =
  match Agr.check ~m1 ~m2 ~prop () with
  | Budget.Converged (Agr.Holds { assumption; membership_queries; rounds }) ->
    Printf.sprintf "holds %s; mq %d rounds %d" (show_dfa assumption)
      membership_queries rounds
  | Budget.Converged (Agr.Violated w) ->
    "violated " ^ String.concat "" (List.map string_of_int w)
  | Budget.Exhausted _ -> "exhausted"

let pinned_search =
  [
    ("mod 2", "start 1 accept 01 delta 0,1 1,0; mq 5 eq 1 rounds 1");
    ("mod 3", "start 2 accept 001 delta 0,1 1,2 2,0; mq 14 eq 2 rounds 2");
    ("mod 4", "start 3 accept 0001 delta 0,1 1,2 2,3 3,0; mq 23 eq 2 rounds 2");
    ("mod 5", "start 4 accept 00001 delta 0,1 1,2 2,3 3,4 4,0; mq 34 eq 2 rounds 2");
    ("mod 6", "start 5 accept 000001 delta 0,1 1,2 2,3 3,4 4,5 5,0; mq 47 eq 2 rounds 2");
    ("mod 7", "start 6 accept 0000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,0; mq 62 eq 2 rounds 2");
    ("mod 8", "start 7 accept 00000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,7 7,0; mq 79 eq 2 rounds 2");
    ("mod 9", "start 8 accept 000000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,7 7,8 8,0; mq 98 eq 2 rounds 2");
    ("mod 10", "start 9 accept 0000000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,7 7,8 8,9 9,0; mq 119 eq 2 rounds 2");
    ("mod 11", "start 10 accept 00000000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,7 7,8 8,9 9,10 10,0; mq 142 eq 2 rounds 2");
    ("mod 12", "start 11 accept 000000000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,7 7,8 8,9 9,10 10,11 11,0; mq 167 eq 2 rounds 2");
    ("mod 13", "start 12 accept 0000000000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,7 7,8 8,9 9,10 10,11 11,12 12,0; mq 194 eq 2 rounds 2");
    ("mod 14", "start 13 accept 00000000000001 delta 0,1 1,2 2,3 3,4 4,5 5,6 6,7 7,8 8,9 9,10 10,11 11,12 12,13 13,0; mq 223 eq 2 rounds 2");
    ("random 1", "start 0 accept 00000011 delta 2,7,3 2,7,1 5,3,1 3,4,4 3,7,0 7,0,2 7,2,0 6,2,5; mq 292 eq 6 rounds 6");
    ("random 2", "start 0 accept 1 delta 0,0,0; mq 4 eq 1 rounds 1");
    ("random 3", "start 5 accept 00001111 delta 0,6,4 4,4,6 5,6,7 7,4,7 2,0,2 4,1,3 4,5,6 5,3,4; mq 137 eq 4 rounds 4");
    ("random 4", "start 0 accept 0 delta 0,0,0; mq 4 eq 1 rounds 1");
    ("random 5", "start 0 accept 0000001 delta 0,5,4 3,6,0 4,0,4 5,2,5 6,3,2 6,6,1 2,2,2; mq 104 eq 4 rounds 4");
    ("random 6", "start 0 accept 0 delta 0,0,0; mq 4 eq 1 rounds 1");
    ("random 7", "start 6 accept 00000011 delta 0,4,4 2,7,4 4,2,0 5,4,2 7,4,0 7,4,3 4,6,1 6,5,3; mq 126 eq 4 rounds 4");
    ("random 8", "start 1 accept 01 delta 0,1,1 1,0,0; mq 7 eq 1 rounds 1");
    ("random 9", "start 2 accept 00000111 delta 0,0,5 6,0,5 5,1,6 7,6,3 7,7,7 4,5,3 2,7,0 5,2,1; mq 94 eq 3 rounds 3");
    ("random 10", "start 0 accept 0 delta 0,0,0; mq 4 eq 1 rounds 1");
    ("random 11", "start 1 accept 011 delta 2,0,1 1,0,1 2,2,1; mq 22 eq 2 rounds 2");
    ("random 12", "start 2 accept 001 delta 0,0,0 1,0,2 1,1,1; mq 22 eq 2 rounds 2");
    ("agr 0", "holds start 2 accept 011 delta 0,0 0,2 1,2; mq 11 rounds 2");
    ("agr 1", "violated 00");
    ("agr 2", "holds start 0 accept 1 delta 0,0; mq 3 rounds 1");
    ("agr 3", "holds start 0 accept 1 delta 0,0; mq 3 rounds 1");
    ("agr 4", "holds start 0 accept 1 delta 0,0; mq 3 rounds 1");
    ("agr 5", "violated 0");
  ]

let test_search_pinned () =
  let agr_cases =
    [
      (alternator, strict_alternator, no_double_acquire);
      (alternator, alternator, no_double_acquire);
      (strict_alternator, alternator, no_double_acquire);
      (no_11, even_zeros, no_11);
      (even_zeros, no_11, Dfa.universal ~alphabet:2);
      (no_11, strict_alternator, even_zeros);
    ]
  in
  let actual =
    List.init 13 (fun i ->
        (Printf.sprintf "mod %d" (i + 2), show_learned (mod_n (i + 2))))
    @ List.init 12 (fun i ->
          (Printf.sprintf "random %d" (i + 1), show_learned (lcg_dfa (i + 1))))
    @ List.mapi (fun i c -> (Printf.sprintf "agr %d" i, show_agr c)) agr_cases
  in
  Alcotest.(check int) "case count" (List.length pinned_search)
    (List.length actual);
  List.iter2
    (fun (name, expect) (name', got) ->
      Alcotest.(check string) "case" name name';
      Alcotest.(check string) name expect got)
    pinned_search actual

(* ------------------------------------------------------------------ *)
(* Assumption mining from traces                                       *)
(* ------------------------------------------------------------------ *)

module Mining = Lstar.Mining

let test_prefix_tree () =
  let d = Mining.prefix_tree ~alphabet:2 [ [ 0; 1 ]; [ 0; 0 ] ] in
  List.iter
    (fun (w, expect) ->
      Alcotest.(check bool)
        (String.concat "" (List.map string_of_int w))
        expect (Lstar.Dfa.accepts d w))
    [
      ([], true); ([ 0 ], true); ([ 0; 1 ], true); ([ 0; 0 ], true);
      ([ 1 ], false); ([ 0; 1; 0 ], false);
    ]

let test_mining_generalizes_periodic_traces () =
  (* a few alternation traces generalize to the infinite alternation *)
  let traces = [ [ 0; 1; 0; 1; 0; 1 ]; [ 0; 1 ] ] in
  let mined = Mining.mine ~alphabet:2 ~k:1 traces in
  Alcotest.(check bool) "consistent" true (Mining.consistent mined traces);
  Alcotest.(check bool) "prefix closed" true (Mining.is_prefix_closed mined);
  (* accepts alternations far longer than any trace *)
  let long = List.concat (List.init 20 (fun _ -> [ 0; 1 ])) in
  Alcotest.(check bool) "generalized beyond the traces" true
    (Lstar.Dfa.accepts mined long);
  Alcotest.(check bool) "still rejects double-0" false
    (Lstar.Dfa.accepts mined [ 0; 0 ])

let test_mining_k_controls_generalization () =
  (* with a large k nothing merges: the language stays the prefixes *)
  let traces = [ [ 0; 1; 0; 1 ] ] in
  let exact = Mining.mine ~alphabet:2 ~k:10 traces in
  Alcotest.(check bool) "no generalization at large k" false
    (Lstar.Dfa.accepts exact [ 0; 1; 0; 1; 0; 1 ]);
  let loose = Mining.mine ~alphabet:2 ~k:1 traces in
  Alcotest.(check bool) "generalization at k=1" true
    (Lstar.Dfa.accepts loose [ 0; 1; 0; 1; 0; 1 ])

let test_long_trace_shape () =
  (* one 2,000-letter trace: the prefix tree is a chain of 2,001 live
     states numbered along the trace, plus the dead state *)
  let trace = List.init 2000 (fun i -> i mod 2) in
  let d = Mining.prefix_tree ~alphabet:2 [ trace ] in
  Alcotest.(check int) "chain plus dead state" 2002 d.Dfa.num_states;
  Alcotest.(check int) "start" 0 d.Dfa.start;
  let dead = 2001 in
  let shape_ok = ref true in
  Array.iteri
    (fun q row ->
      let live = q < dead in
      if d.Dfa.accept.(q) <> live then shape_ok := false;
      Array.iteri
        (fun a q' ->
          let expect =
            if live && q < 2000 && a = q mod 2 then q + 1 else dead
          in
          if q' <> expect then shape_ok := false)
        row)
    d.Dfa.delta;
  Alcotest.(check bool) "delta follows the trace" true !shape_ok;
  let exact = Dfa.of_words ~alphabet:2 [ trace ] in
  Alcotest.(check int) "of_words: same chain" 2002 exact.Dfa.num_states;
  Alcotest.(check bool) "of_words: the trace" true (Dfa.accepts exact trace);
  Alcotest.(check bool) "of_words: not its prefix" false
    (Dfa.accepts exact (List.init 1999 (fun i -> i mod 2)));
  (* mining generalizes the alternation: start, after-0, dead *)
  let mined = Mining.mine ~alphabet:2 ~k:2 [ trace ] in
  Alcotest.(check int) "mined states" 3 mined.Dfa.num_states;
  Alcotest.(check bool) "mined: consistent" true
    (Mining.consistent mined [ trace ])

let test_mining_always_consistent =
  QCheck2.Test.make ~name:"mined assumptions accept their traces" ~count:150
    ~print:(fun traces ->
      String.concat " "
        (List.map (fun w -> String.concat "" (List.map string_of_int w)) traces))
    QCheck2.Gen.(
      list_size (int_range 1 4) (list_size (int_range 0 6) (int_range 0 1)))
    (fun traces ->
      List.for_all
        (fun k ->
          let mined = Mining.mine ~alphabet:2 ~k traces in
          Mining.consistent mined traces && Mining.is_prefix_closed mined)
        [ 1; 2; 3 ])

let test_mined_assumption_in_agr () =
  (* mine M2's behaviour from traces and discharge the AGR premises with
     the mined assumption directly (no L* needed) *)
  let traces = [ [ 0; 1; 0; 1 ]; [ 0; 1 ]; [] ] in
  let mined = Mining.mine ~alphabet:2 ~k:1 traces in
  (match Dfa.subset (Dfa.inter alternator mined) no_double_acquire with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "premise 1 fails with the mined assumption");
  match Dfa.subset strict_alternator mined with
  | Ok () -> ()
  | Error w ->
    Alcotest.failf "premise 2 fails: %s escapes the mined assumption"
      (String.concat "" (List.map string_of_int w))

let gen_dfa =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* accept = array_size (return n) bool in
    let* delta =
      array_size (return n) (array_size (return 2) (int_range 0 (n - 1)))
    in
    return (Dfa.make ~alphabet:2 ~start:0 ~accept ~delta))

let prop_agr_random =
  QCheck2.Test.make ~name:"AGR verdict = monolithic check on random triples"
    ~count:80
    ~print:(fun (m1, m2, p) ->
      Format.asprintf "m1=%a@.m2=%a@.p=%a" Dfa.pp m1 Dfa.pp m2 Dfa.pp p)
    QCheck2.Gen.(triple gen_dfa gen_dfa gen_dfa)
    (fun (m1, m2, prop) ->
      let direct = Dfa.subset (Dfa.inter m1 m2) prop = Ok () in
      match conv (Agr.check ~m1 ~m2 ~prop ()) with
      | Agr.Holds _ -> direct
      | Agr.Violated w ->
        (not direct)
        && Dfa.accepts m1 w && Dfa.accepts m2 w && not (Dfa.accepts prop w))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lstar"
    [
      ( "dfa",
        [
          Alcotest.test_case "run/accepts" `Quick test_run_accepts;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "emptiness" `Quick test_emptiness;
          Alcotest.test_case "subset with witness" `Quick test_subset;
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "finite languages" `Quick test_of_words;
        ] );
      ( "lstar",
        [
          Alcotest.test_case "even zeros" `Quick test_lstar_even_zeros;
          Alcotest.test_case "no 11" `Quick test_lstar_no11;
          Alcotest.test_case "finite language" `Quick test_lstar_finite_language;
          Alcotest.test_case "universal" `Quick test_lstar_universal;
        ]
        @ qsuite [ prop_lstar_random_dfas ] );
      ( "agr",
        [
          Alcotest.test_case "property holds via assumption" `Quick
            test_agr_holds;
          Alcotest.test_case "real violation reported" `Quick test_agr_violated;
          Alcotest.test_case "weakest assumption membership" `Quick
            test_weakest_assumption;
          Alcotest.test_case "agrees with monolithic check" `Quick
            test_agr_matches_monolithic;
          Alcotest.test_case "search pinned" `Quick test_search_pinned;
        ]
        @ qsuite [ prop_agr_random ] );
      ( "mining",
        [
          Alcotest.test_case "prefix tree" `Quick test_prefix_tree;
          Alcotest.test_case "generalizes periodic traces" `Quick
            test_mining_generalizes_periodic_traces;
          Alcotest.test_case "k controls generalization" `Quick
            test_mining_k_controls_generalization;
          Alcotest.test_case "mined assumption discharges AGR" `Quick
            test_mined_assumption_in_agr;
          Alcotest.test_case "2,000-letter trace" `Quick test_long_trace_shape;
        ]
        @ qsuite [ test_mining_always_consistent ] );
    ]
