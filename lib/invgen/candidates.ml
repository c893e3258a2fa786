type t =
  | Equiv of Aig.lit * Aig.lit
  | Implies of Aig.lit * Aig.lit

let holds_in aig ~latch_values ~input_values = function
  | Equiv (a, b) ->
    Aig.eval aig ~latch_values ~input_values a
    = Aig.eval aig ~latch_values ~input_values b
  | Implies (a, b) ->
    (not (Aig.eval aig ~latch_values ~input_values a))
    || Aig.eval aig ~latch_values ~input_values b

let lanes_mask = (1 lsl 62) - 1

let signature_of sig_ l =
  let w = sig_.(Aig.node_of l) in
  if Aig.is_complemented l then Array.map (fun x -> lnot x land lanes_mask) w
  else Array.copy w

let all_zero w = Array.for_all (fun x -> x = 0) w
let implies_sig a b =
  Array.for_all2 (fun wa wb -> wa land lnot wb land lanes_mask = 0) a b

let from_simulation ?(frames = 16) ?(seed = 99) ?implication_focus aig =
  Aig.validate aig;
  let sig_ = Aig.simulate_words aig ~frames ~seed in
  let n = Aig.num_nodes aig in
  let cands = ref [] in
  (* constants and equivalences over non-input, non-constant nodes; group
     by phase-normalized signature (lowest lane of frame 0 decides) *)
  let groups = Hashtbl.create 64 in
  (* inputs are free: candidates over them are simulation artifacts *)
  let is_candidate_node i = i > 0 && not (Aig.is_input_node aig i) in
  for i = 1 to n - 1 do
    if is_candidate_node i then begin
      let l = 2 * i in
      let s = signature_of sig_ l in
      if all_zero s then cands := Equiv (l, Aig.false_) :: !cands
      else if all_zero (signature_of sig_ (Aig.neg l)) then
        cands := Equiv (l, Aig.true_) :: !cands
      else begin
        (* normalize phase so complemented equivalences share a key *)
        let phase = s.(0) land 1 in
        let key =
          Array.to_list (if phase = 1 then signature_of sig_ (Aig.neg l) else s)
        in
        let l_norm = if phase = 1 then Aig.neg l else l in
        match Hashtbl.find_opt groups key with
        | None -> Hashtbl.replace groups key l_norm
        | Some rep -> cands := Equiv (l_norm, rep) :: !cands
      end
    end
  done;
  (* implications: an O(|focus|^2) scan over pure signature reads *)
  let focus =
    Option.value implication_focus ~default:(Aig.latches aig)
  in
  let lits = List.concat_map (fun l -> [ l; Aig.neg l ]) focus in
  let row a =
    List.filter_map
      (fun b ->
        if a <> b && a <> Aig.neg b then begin
          let sa = signature_of sig_ a and sb = signature_of sig_ b in
          if
            implies_sig sa sb && (not (all_zero sa))
            && not (all_zero (signature_of sig_ (Aig.neg b)))
          then Some (Implies (a, b))
          else None
        end
        else None)
      lits
  in
  List.rev !cands @ List.concat_map row lits

let pp fmt = function
  | Equiv (a, b) -> Format.fprintf fmt "l%d == l%d" a b
  | Implies (a, b) -> Format.fprintf fmt "l%d => l%d" a b
