let prefix_tree ~alphabet traces = Dfa.of_words ~prefixes:true ~alphabet traces

(* the set of live continuations of length <= k from state q, as a
   canonical sorted list of words *)
let k_tail (d : Dfa.t) k q =
  if not d.Dfa.accept.(q) then None (* the dead class *)
  else begin
    let acc = ref [] in
    let rec go q word depth =
      if d.Dfa.accept.(q) then begin
        acc := List.rev word :: !acc;
        if depth < k then
          for a = 0 to d.Dfa.alphabet - 1 do
            go d.Dfa.delta.(q).(a) (a :: word) (depth + 1)
          done
      end
    in
    go q [] 0;
    Some (List.sort_uniq compare !acc)
  end

let mine ~alphabet ?(k = 2) traces =
  let t = prefix_tree ~alphabet traces in
  let signature = Array.init t.Dfa.num_states (k_tail t k) in
  (* class id per distinct signature *)
  let classes = Hashtbl.create 16 in
  let class_of = Array.make t.Dfa.num_states (-1) in
  Array.iteri
    (fun q s ->
      match Hashtbl.find_opt classes s with
      | Some c -> class_of.(q) <- c
      | None ->
        let c = Hashtbl.length classes in
        Hashtbl.replace classes s c;
        class_of.(q) <- c)
    signature;
  let n = Hashtbl.length classes in
  (* The quotient is nondeterministic: different members of a class can
     move to different classes on the same symbol. Take the union of the
     targets and determinize by subset construction (acceptance = the
     subset contains a live class), so every original trace path is
     preserved. *)
  let module Iset = Set.Make (Int) in
  let nfa_delta = Array.make_matrix n alphabet Iset.empty in
  Array.iteri
    (fun q c ->
      if t.Dfa.accept.(q) then
        for a = 0 to alphabet - 1 do
          let q' = t.Dfa.delta.(q).(a) in
          if t.Dfa.accept.(q') then
            nfa_delta.(c).(a) <- Iset.add class_of.(q') nfa_delta.(c).(a)
        done)
    class_of;
  (* subset construction over live classes only; the empty subset is the
     dead state *)
  let ids = Hashtbl.create 16 in
  let states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern s =
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.replace ids s i;
      states := (i, s) :: !states;
      Queue.add s queue;
      i
  in
  let start = intern (Iset.singleton class_of.(t.Dfa.start)) in
  let trans = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let i = Hashtbl.find ids s in
    let row =
      Array.init alphabet (fun a ->
          let target =
            Iset.fold (fun c acc -> Iset.union nfa_delta.(c).(a) acc) s Iset.empty
          in
          intern target)
    in
    trans := (i, row) :: !trans
  done;
  let m = !count in
  let delta = Array.make m [||] in
  List.iter (fun (i, row) -> delta.(i) <- row) !trans;
  let accept = Array.make m false in
  List.iter (fun (i, s) -> accept.(i) <- not (Iset.is_empty s)) !states;
  Dfa.minimize (Dfa.make ~alphabet ~start ~accept ~delta)

let consistent (d : Dfa.t) traces =
  (* every prefix accepted: every state along the run *)
  let rec along q = function
    | [] -> true
    | a :: rest ->
      let q' = d.Dfa.delta.(q).(a) in
      d.Dfa.accept.(q') && along q' rest
  in
  List.for_all
    (fun w -> d.Dfa.accept.(d.Dfa.start) && along d.Dfa.start w)
    traces

let is_prefix_closed (d : Dfa.t) =
  (* every transition out of a rejecting state must stay rejecting, on
     the reachable part *)
  let ok = ref true in
  let visited = Array.make d.Dfa.num_states false in
  let queue = Queue.create () in
  visited.(d.Dfa.start) <- true;
  Queue.add d.Dfa.start queue;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    Array.iter
      (fun q' ->
        if (not d.Dfa.accept.(q)) && d.Dfa.accept.(q') then ok := false;
        if not visited.(q') then begin
          visited.(q') <- true;
          Queue.add q' queue
        end)
      d.Dfa.delta.(q)
  done;
  !ok
