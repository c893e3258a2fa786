module Loop = Sciduction.Loop

type stats = {
  membership_queries : int;
  equivalence_queries : int;
  rounds : int;
}

type partial = {
  hypothesis : Dfa.t option;
  stats : stats;
  reason : Budget.reason;
}

module Wmap = Map.Make (struct
  type t = Dfa.word

  let compare = compare
end)

(* A word of S ∪ S·A with its row: one '0'/'1' cell per experiment, in
   the order the experiments joined E. A row lags behind E until it is
   next read. *)
type entry = {
  word : Dfa.word;
  mutable row : string;
  mutable in_s : bool;
  mutable succ : entry array; (* the one-letter extensions, once read *)
}

type table = {
  alphabet : int;
  mutable s : entry Wmap.t; (* rows: prefix-closed *)
  mutable e : int Wmap.t; (* experiments, suffix-closed, to their column *)
  mutable cols : Dfa.word array; (* experiments by column *)
  entries : entry Dfa.Wtbl.t;
  answers : bool Dfa.Wtbl.t;
  membership : Dfa.word -> bool;
  mutable queries : int;
}

let m_membership = Obs.Metrics.counter "lstar.membership_queries"
let m_membership_cached = Obs.Metrics.counter "lstar.membership_cached"

let ask t w =
  match Dfa.Wtbl.find_opt t.answers w with
  | Some b ->
    Obs.Metrics.incr m_membership_cached;
    b
  | None ->
    t.queries <- t.queries + 1;
    Obs.Metrics.incr m_membership;
    let b = t.membership w in
    Dfa.Wtbl.add t.answers w b;
    b

let entry t w =
  match Dfa.Wtbl.find_opt t.entries w with
  | Some en -> en
  | None ->
    let en = { word = w; row = ""; in_s = false; succ = [||] } in
    Dfa.Wtbl.add t.entries w en;
    en

let add_s t w =
  let en = entry t w in
  en.in_s <- true;
  t.s <- Wmap.add w en t.s

let add_e t e =
  t.e <- Wmap.add e (Array.length t.cols) t.e;
  t.cols <- Array.append t.cols [| e |]

let row t en =
  let have = String.length en.row and need = Array.length t.cols in
  if have < need then
    en.row <-
      en.row
      ^ String.init (need - have) (fun k ->
            if ask t (en.word @ t.cols.(have + k)) then '1' else '0');
  en.row

let succ t en a =
  if en.succ = [||] then
    en.succ <- Array.init t.alphabet (fun a -> entry t (en.word @ [ a ]));
  en.succ.(a)

(* the first letter on which the extensions of [x] and [y] have
   different rows *)
let first_split t x y =
  let rec go a =
    if a = t.alphabet then None
    else if row t (succ t x a) <> row t (succ t y a) then Some a
    else go (a + 1)
  in
  go 0

(* Close and make consistent, repeatedly. Each step adds the same word
   the pairwise search over sorted S and E would: the first unclosed
   extension s·a in (s, a) order, else the experiment a·e of the first
   inconsistent pair (s1 < s2), first a, then first e in sorted order. *)
let rec fix t =
  (* closedness: every one-letter extension's row appears among S rows *)
  let s_rows = Hashtbl.create (Wmap.cardinal t.s) in
  Wmap.iter (fun _ en -> Hashtbl.replace s_rows (row t en) ()) t.s;
  let unclosed en a =
    let x = succ t en a in
    not (x.in_s || Hashtbl.mem s_rows (row t x))
  in
  let missing =
    Seq.find_map
      (fun (_, en) ->
        Seq.find_map
          (fun a -> if unclosed en a then Some (succ t en a) else None)
          (Seq.init t.alphabet Fun.id))
      (Wmap.to_seq t.s)
  in
  match missing with
  | Some x ->
    add_s t x.word;
    fix t
  | None -> (
    (* consistency: equal rows must have equal extensions. The first
       inconsistent pair's s1 is the least member of the row class with
       the least such member; its s2 is the first later member of that
       class whose extension rows differ. *)
    let classes = Hashtbl.create (Wmap.cardinal t.s) in
    let pair = ref None in
    Seq.iteri
      (fun i (_, en) ->
        let r = row t en in
        match Hashtbl.find_opt classes r with
        | None -> Hashtbl.add classes r (i, en, ref false)
        | Some (j, least, split) when not !split -> (
          match first_split t least en with
          | None -> ()
          | Some a -> (
            split := true;
            match !pair with
            | Some (k, _, _, _) when k < j -> ()
            | _ -> pair := Some (j, least, en, a)))
        | Some _ -> ())
      (Wmap.to_seq t.s);
    match !pair with
    | None -> ()
    | Some (_, s1, s2, a) ->
      let r1 = row t (succ t s1 a) and r2 = row t (succ t s2 a) in
      let e =
        Seq.find_map
          (fun (e, col) -> if r1.[col] <> r2.[col] then Some e else None)
          (Wmap.to_seq t.e)
      in
      add_e t (a :: Option.get e);
      fix t)

let hypothesis t =
  (* one representative per row class, its least member; states are
     numbered by the rows read in sorted-E order *)
  let reps = Hashtbl.create 16 in
  Wmap.iter
    (fun _ en ->
      let r = row t en in
      if not (Hashtbl.mem reps r) then Hashtbl.add reps r en)
    t.s;
  let order = Array.of_seq (Seq.map snd (Wmap.to_seq t.e)) in
  let sorted r = String.init (Array.length order) (fun k -> r.[order.(k)]) in
  let states =
    Hashtbl.fold (fun r en acc -> (sorted r, r, en) :: acc) reps []
    |> List.sort (fun (k1, _, _) (k2, _, _) -> String.compare k1 k2)
    |> Array.of_list
  in
  let index = Hashtbl.create (Array.length states) in
  Array.iteri (fun i (_, r, _) -> Hashtbl.add index r i) states;
  let state en = Hashtbl.find index (row t en) in
  let delta =
    Array.map
      (fun (_, _, en) -> Array.init t.alphabet (fun a -> state (succ t en a)))
      states
  in
  (* column 0 is the empty experiment *)
  let accept = Array.map (fun (_, r, _) -> r.[0] = '1') states in
  Dfa.make ~alphabet:t.alphabet ~start:(state (Wmap.find [] t.s)) ~accept ~delta

let learn ~alphabet ~membership ~equivalence ?(max_rounds = 200)
    ?(budget = Budget.unlimited) () =
  let t =
    {
      alphabet;
      s = Wmap.empty;
      e = Wmap.empty;
      cols = [||];
      entries = Dfa.Wtbl.create 64;
      answers = Dfa.Wtbl.create 64;
      membership;
      queries = 0;
    }
  in
  add_s t [];
  add_e t [];
  let eq_queries = ref 0 in
  let stats rounds =
    {
      membership_queries = t.queries;
      equivalence_queries = !eq_queries;
      rounds;
    }
  in
  Loop.run "lstar" ~budget ~max_iterations:max_rounds
    ~attrs:[ ("alphabet", Obs.Int alphabet) ]
    ~finished:(fun (_, st) ->
      [
        ("outcome", Obs.String "learned");
        ("membership_queries", Obs.Int st.membership_queries);
        ("rounds", Obs.Int st.rounds);
      ])
    ~exhausted:(fun p -> (p.reason, [ ("rounds", Obs.Int p.stats.rounds) ], []))
  @@ fun lp ->
  let rec go round last_h =
    match Loop.tick lp with
    | Some reason ->
      Budget.Exhausted
        { hypothesis = last_h; stats = stats (round - 1); reason }
    | None -> (
      Loop.iteration lp round ~attrs:[ ("rows", Obs.Int (Wmap.cardinal t.s)) ];
      Obs.with_span "lstar.fix" (fun () -> fix t);
      let h = Obs.with_span "lstar.hypothesis" (fun () -> hypothesis t) in
      Loop.candidate lp ~attrs:[ ("states", Obs.Int h.Dfa.num_states) ];
      incr eq_queries;
      (* membership queries are answered inside [fix], a few at a time;
         only the equivalence query is timed as the deductive engine's *)
      match Loop.deduce lp equivalence h with
      | None ->
        Loop.verdict lp "equivalent";
        Budget.Converged (h, stats round)
      | Some cex ->
        Loop.verdict lp "counterexample";
        Loop.counterexample lp ~attrs:[ ("length", Obs.Int (List.length cex)) ];
        (* add all prefixes of the counterexample to S *)
        let rec prefixes acc = function
          | [] -> acc
          | a :: rest -> prefixes ((List.hd acc @ [ a ]) :: acc) rest
        in
        List.iter (add_s t) (prefixes [ [] ] cex);
        go (round + 1) (Some h))
  in
  go 1 None

let learn_exact ?budget ~target () =
  learn ~alphabet:target.Dfa.alphabet
    ~membership:(Dfa.accepts target)
    ~equivalence:(fun h ->
      match Dfa.equal h target with Ok () -> None | Error w -> Some w)
    ?budget ()
