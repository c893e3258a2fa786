module Bv = Smt.Bv

type label =
  | Assign of string * Bv.term
  | Guard of Bv.formula
  | Skip

type edge = { id : int; src : int; dst : int; label : label }

type t = {
  nnodes : int;
  entry : int;
  exit_ : int;
  edges : edge array;
  succ : edge list array;
  live : bool array;
}

type builder = {
  mutable next_node : int;
  mutable acc : edge list; (* reverse order *)
  mutable next_edge : int;
}

let new_node b =
  let n = b.next_node in
  b.next_node <- n + 1;
  n

let add_edge b src dst label =
  b.acc <- { id = b.next_edge; src; dst; label } :: b.acc;
  b.next_edge <- b.next_edge + 1

(* returns the node at which control resumes after the statement *)
let rec build_stmt b entry = function
  | Lang.Assign (x, e) ->
    let n = new_node b in
    add_edge b entry n (Assign (x, e));
    n
  | Lang.Assume f ->
    let n = new_node b in
    add_edge b entry n (Guard f);
    n
  | Lang.If (c, then_, else_) ->
    let nt = new_node b in
    add_edge b entry nt (Guard c);
    let jt = build_block b nt then_ in
    let ne = new_node b in
    add_edge b entry ne (Guard (Bv.fnot c));
    let je = build_block b ne else_ in
    let join = new_node b in
    add_edge b jt join Skip;
    add_edge b je join Skip;
    join
  | Lang.While _ -> invalid_arg "Cfg.of_program: program contains a loop"

and build_block b entry stmts = List.fold_left (build_stmt b) entry stmts

(* -- statically dead edges -- *)

module Smap = Map.Make (String)

(* what every path into a node agrees a variable holds: one constant, or
   no single value *)
type value = Known of Bv.term | Unknown

(* Forward constant propagation over the DAG, then a backward pass. The
   store follows [Symexec]: inputs are symbolic, unassigned non-inputs
   read 0, and a value is known only when [Bv]'s own folding reduces it
   to a constant. An edge is dead when its source is unreachable or its
   guard folds to false under the source's store; folding never depends
   on the value of a variable left in the term, so every path through a
   dead edge is infeasible. An edge is live when it is not dead and its
   target still reaches the exit over edges that are not dead. Builder
   nodes are numbered so that every edge goes from a lower to a higher
   node, so one sweep in node order sees every predecessor first. *)
let live_edges (p : Lang.t) ~nnodes ~entry ~exit_ edges succ =
  let zero = Bv.const ~width:p.Lang.width 0 in
  let value store x =
    match Smap.find_opt x store with
    | Some v -> v
    | None -> if List.mem x p.Lang.inputs then Unknown else Known zero
  in
  let lookup store x =
    match value store x with Known c -> Some c | Unknown -> None
  in
  let meet a b =
    Smap.merge
      (fun x _ _ ->
        let va = value a x in
        Some (if va = value b x then va else Unknown))
      a b
  in
  let into = Array.make nnodes None in
  into.(entry) <- Some Smap.empty;
  let dead = Array.make (Array.length edges) true in
  for n = 0 to nnodes - 1 do
    Option.iter
      (fun store ->
        List.iter
          (fun e ->
            assert (e.src < e.dst);
            let out =
              match e.label with
              | Skip -> Some store
              | Guard f -> (
                match Bv.subst (lookup store) f with
                | Bv.Bfalse -> None
                | _ -> Some store)
              | Assign (x, rhs) ->
                let v =
                  match Bv.subst_term (lookup store) rhs with
                  | Bv.Const _ as c -> Known c
                  | _ -> Unknown
                in
                Some (Smap.add x v store)
            in
            Option.iter
              (fun out ->
                dead.(e.id) <- false;
                into.(e.dst) <-
                  Some
                    (match into.(e.dst) with
                    | None -> out
                    | Some s -> meet s out))
              out)
          succ.(n))
      into.(n)
  done;
  let reaches = Array.make nnodes false in
  reaches.(exit_) <- true;
  for n = nnodes - 1 downto 0 do
    if n <> exit_ then
      reaches.(n) <-
        List.exists (fun e -> (not dead.(e.id)) && reaches.(e.dst)) succ.(n)
  done;
  Array.map (fun e -> (not dead.(e.id)) && reaches.(e.dst)) edges

let of_program (p : Lang.t) =
  let b = { next_node = 0; acc = []; next_edge = 0 } in
  let entry = new_node b in
  let exit_ = build_block b entry p.Lang.body in
  let edges = Array.of_list (List.rev b.acc) in
  Array.iteri (fun i e -> assert (e.id = i)) edges;
  let nnodes = b.next_node in
  let succ = Array.make nnodes [] in
  Array.iter (fun e -> succ.(e.src) <- e :: succ.(e.src)) edges;
  (* restore source order of outgoing edges *)
  Array.iteri (fun i es -> succ.(i) <- List.rev es) succ;
  let live = live_edges p ~nnodes ~entry ~exit_ edges succ in
  { nnodes; entry; exit_; edges; succ; live }

let num_edges g = Array.length g.edges

let pp_label fmt = function
  | Assign (x, e) -> Format.fprintf fmt "%s := %a" x Bv.pp_term e
  | Guard f -> Format.fprintf fmt "[%a]" Bv.pp f
  | Skip -> Format.pp_print_string fmt "skip"

let pp fmt g =
  Format.fprintf fmt "@[<v>entry=%d exit=%d@," g.entry g.exit_;
  Array.iter
    (fun e -> Format.fprintf fmt "e%d: %d -> %d  %a@," e.id e.src e.dst pp_label e.label)
    g.edges;
  Format.fprintf fmt "@]"
