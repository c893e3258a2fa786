type t = {
  concrete : Ts.t;
  visible : int list;
  abstract : Ts.t;
  hidden_input : int array;
}

let localize (ts : Ts.t) ~visible =
  let visible = List.sort_uniq compare visible in
  List.iter
    (fun i ->
      if i < 0 || i >= ts.Ts.num_latches then
        invalid_arg "Abstraction.localize: latch out of range")
    visible;
  let n = ts.Ts.num_latches in
  let latch_map = Array.make n (-1) in
  List.iteri (fun k i -> latch_map.(i) <- k) visible;
  let hidden_input = Array.make n (-1) in
  let next_input = ref ts.Ts.num_inputs in
  for i = 0 to n - 1 do
    if latch_map.(i) < 0 then begin
      hidden_input.(i) <- !next_input;
      incr next_input
    end
  done;
  let rec rewrite = function
    | (Ts.T | Ts.F) as e -> e
    | Ts.V i -> if latch_map.(i) >= 0 then Ts.V latch_map.(i) else Ts.In hidden_input.(i)
    | Ts.In i -> Ts.In i
    | Ts.Not a -> Ts.Not (rewrite a)
    | Ts.And (a, b) -> Ts.And (rewrite a, rewrite b)
    | Ts.Or (a, b) -> Ts.Or (rewrite a, rewrite b)
    | Ts.Xor (a, b) -> Ts.Xor (rewrite a, rewrite b)
  in
  (* the bad predicate stays a state predicate: existentially eliminate
     hidden latches instead of turning them into inputs (an abstract
     state is bad if SOME hidden valuation makes it bad — still an
     over-approximation) *)
  let rec subst_latch v value = function
    | (Ts.T | Ts.F | Ts.In _) as e -> e
    | Ts.V i -> if i = v then value else Ts.V i
    | Ts.Not a -> Ts.Not (subst_latch v value a)
    | Ts.And (a, b) -> Ts.And (subst_latch v value a, subst_latch v value b)
    | Ts.Or (a, b) -> Ts.Or (subst_latch v value a, subst_latch v value b)
    | Ts.Xor (a, b) -> Ts.Xor (subst_latch v value a, subst_latch v value b)
  in
  let bad_exists =
    let hidden_in_bad =
      List.filter (fun i -> latch_map.(i) < 0) (fst (Ts.support ts [ ts.Ts.bad ]))
    in
    List.fold_left
      (fun e v -> Ts.Or (subst_latch v Ts.T e, subst_latch v Ts.F e))
      ts.Ts.bad (List.rev hidden_in_bad)
  in
  let abstract =
    Ts.make
      ~name:(ts.Ts.name ^ "#abs")
      ~num_latches:(List.length visible) ~num_inputs:!next_input
      ~init:(Array.of_list (List.map (fun i -> ts.Ts.init.(i)) visible))
      ~next:(Array.of_list (List.map (fun i -> rewrite ts.Ts.next.(i)) visible))
      ~bad:(rewrite bad_exists)
  in
  { concrete = ts; visible; abstract; hidden_input }

let abstract_index a i =
  match List.find_index (fun j -> j = i) a.visible with
  | Some k -> k
  | None -> invalid_arg "Abstraction.abstract_index: latch is hidden"

let referenced_hidden a =
  let ts = a.concrete in
  let counts = Array.make ts.Ts.num_latches 0 in
  let tally e =
    List.iter
      (fun i -> if a.hidden_input.(i) >= 0 then counts.(i) <- counts.(i) + 1)
      (fst (Ts.support ts [ e ]))
  in
  List.iter (fun i -> tally ts.Ts.next.(i)) a.visible;
  tally ts.Ts.bad;
  let refs = ref [] in
  Array.iteri (fun i c -> if c > 0 then refs := (c, i) :: !refs) counts;
  List.sort (fun (c1, _) (c2, _) -> compare c2 c1) !refs |> List.map snd
