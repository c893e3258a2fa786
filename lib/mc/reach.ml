type answer =
  | Safe of { states_explored : int }
  | Cex of bool array list

let m_successors = Obs.Metrics.counter "mc.reach_successors"

let pack state =
  let v = ref 0 in
  Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) state;
  !v

let unpack n code = Array.init n (fun i -> code land (1 lsl i) <> 0)

let check ?(max_states = 2_000_000) (t : Ts.t) =
  if t.Ts.num_latches > 22 then
    invalid_arg "Reach.check: too many latches for explicit search";
  (* the inputs some next-state function reads; [bad] is a state
     predicate, so no other input can change a successor *)
  let read = Array.of_list (snd (Ts.support t (Array.to_list t.Ts.next))) in
  if Array.length read > 16 then
    invalid_arg "Reach.check: too many inputs for explicit search";
  (* Input code [c] sets read input [read.(j)] to bit [j] of [c] and every
     unread input to false. The spread keeps numeric order, so the codes
     run through the smallest full input valuation of each distinct
     successor in the order a search over every valuation meets them. *)
  let input_of_code code =
    let input = Array.make t.Ts.num_inputs false in
    Array.iteri (fun j i -> input.(i) <- code land (1 lsl j) <> 0) read;
    input
  in
  let ncodes = 1 lsl Array.length read in
  let parent = Hashtbl.create 1024 in
  (* state code -> (predecessor code, input code); the initial state maps
     to itself *)
  let init_code = pack t.Ts.init in
  Hashtbl.replace parent init_code (init_code, 0);
  let queue = Queue.create () in
  Queue.add init_code queue;
  let trace_to code =
    let rec go code acc =
      let pred, inp = Hashtbl.find parent code in
      if pred = code then acc else go pred (input_of_code inp :: acc)
    in
    go code []
  in
  let explored = ref 0 and successors = ref 0 in
  let result = ref None in
  Fun.protect ~finally:(fun () -> Obs.Metrics.add m_successors !successors)
  @@ fun () ->
  while !result = None && not (Queue.is_empty queue) do
    let code = Queue.pop queue in
    incr explored;
    if !explored > max_states then
      invalid_arg "Reach.check: state budget exceeded";
    let state = unpack t.Ts.num_latches code in
    if Ts.is_bad t state then result := Some (Cex (trace_to code))
    else begin
      successors := !successors + ncodes;
      for inp = 0 to ncodes - 1 do
        let succ = pack (Ts.step t ~state ~input:(input_of_code inp)) in
        if not (Hashtbl.mem parent succ) then begin
          Hashtbl.replace parent succ (code, inp);
          Queue.add succ queue
        end
      done
    end
  done;
  match !result with
  | Some r -> r
  | None -> Safe { states_explored = !explored }

let replay (t : Ts.t) inputs =
  let state = ref (Array.copy t.Ts.init) in
  Ts.is_bad t !state
  || List.exists
       (fun input ->
         state := Ts.step t ~state:!state ~input;
         Ts.is_bad t !state)
       inputs
