type word = int list

module Wtbl = Hashtbl.Make (struct
  type t = word

  let equal = List.equal Int.equal

  (* the whole word: [Hashtbl.hash] stops after ten letters *)
  let hash w = Hashtbl.hash (List.fold_left (fun h a -> (h * 31) + a + 1) 0 w)
end)

type t = {
  alphabet : int;
  num_states : int;
  start : int;
  accept : bool array;
  delta : int array array;
}

let make ~alphabet ~start ~accept ~delta =
  let n = Array.length accept in
  if Array.length delta <> n then invalid_arg "Dfa.make: delta arity";
  if start < 0 || start >= n then invalid_arg "Dfa.make: start out of range";
  Array.iter
    (fun row ->
      if Array.length row <> alphabet then invalid_arg "Dfa.make: incomplete row";
      Array.iter
        (fun q -> if q < 0 || q >= n then invalid_arg "Dfa.make: target out of range")
        row)
    delta;
  { alphabet; num_states = n; start; accept; delta }

let run t w = List.fold_left (fun q a -> t.delta.(q).(a)) t.start w
let accepts t w = t.accept.(run t w)
let complement t = { t with accept = Array.map not t.accept }

let product a b ~acc =
  if a.alphabet <> b.alphabet then invalid_arg "Dfa.product: alphabet mismatch";
  (* explore reachable pairs breadth-first *)
  let code qa qb = (qa * b.num_states) + qb in
  let ids = Hashtbl.create 64 in
  let states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern qa qb =
    let c = code qa qb in
    match Hashtbl.find_opt ids c with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.replace ids c i;
      states := (qa, qb) :: !states;
      Queue.add (qa, qb) queue;
      i
  in
  let start = intern a.start b.start in
  let trans = ref [] in
  while not (Queue.is_empty queue) do
    let qa, qb = Queue.pop queue in
    let i = Hashtbl.find ids (code qa qb) in
    let row =
      Array.init a.alphabet (fun s -> intern a.delta.(qa).(s) b.delta.(qb).(s))
    in
    trans := (i, row) :: !trans
  done;
  let n = !count in
  let delta = Array.make n [||] in
  List.iter (fun (i, row) -> delta.(i) <- row) !trans;
  let accept = Array.make n false in
  List.iteri
    (fun k (qa, qb) ->
      let i = !count - 1 - k in
      ignore i;
      let idx = Hashtbl.find ids (code qa qb) in
      accept.(idx) <- acc a.accept.(qa) b.accept.(qb))
    !states;
  { alphabet = a.alphabet; num_states = n; start; accept; delta }

let inter a b = product a b ~acc:( && )
let union a b = product a b ~acc:( || )

let find_accepted t =
  (* BFS for a shortest accepted word *)
  let visited = Array.make t.num_states false in
  let queue = Queue.create () in
  Queue.add (t.start, []) queue;
  visited.(t.start) <- true;
  let rec go () =
    if Queue.is_empty queue then None
    else
      let q, path = Queue.pop queue in
      if t.accept.(q) then Some (List.rev path)
      else begin
        for s = 0 to t.alphabet - 1 do
          let q' = t.delta.(q).(s) in
          if not visited.(q') then begin
            visited.(q') <- true;
            Queue.add (q', s :: path) queue
          end
        done;
        go ()
      end
  in
  go ()

let subset a b =
  match find_accepted (inter a (complement b)) with
  | None -> Ok ()
  | Some w -> Error w

let equal a b =
  match subset a b with
  | Error w -> Error w
  | Ok () -> subset b a

let reachable t =
  let visited = Array.make t.num_states false in
  let queue = Queue.create () in
  visited.(t.start) <- true;
  Queue.add t.start queue;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    Array.iter
      (fun q' ->
        if not visited.(q') then begin
          visited.(q') <- true;
          Queue.add q' queue
        end)
      t.delta.(q)
  done;
  visited

let minimize t =
  let alive = reachable t in
  (* Moore refinement: classes identified by (acceptance, successor
     classes), iterated to fixpoint over reachable states *)
  let cls = Array.init t.num_states (fun q -> if t.accept.(q) then 1 else 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    let sig_of q =
      (cls.(q), Array.to_list (Array.map (fun q' -> cls.(q')) t.delta.(q)))
    in
    let tbl = Hashtbl.create 16 in
    let next = Array.make t.num_states (-1) in
    let count = ref 0 in
    for q = 0 to t.num_states - 1 do
      if alive.(q) then begin
        let s = sig_of q in
        match Hashtbl.find_opt tbl s with
        | Some c -> next.(q) <- c
        | None ->
          Hashtbl.replace tbl s !count;
          next.(q) <- !count;
          incr count
      end
    done;
    let differs = ref false in
    (* classes changed iff the partition got finer *)
    let seen = Hashtbl.create 16 in
    for q = 0 to t.num_states - 1 do
      if alive.(q) then begin
        match Hashtbl.find_opt seen cls.(q) with
        | None -> Hashtbl.replace seen cls.(q) next.(q)
        | Some c -> if c <> next.(q) then differs := true
      end
    done;
    if !differs then begin
      Array.blit next 0 cls 0 t.num_states;
      changed := true
    end
    else Array.blit next 0 cls 0 t.num_states
  done;
  let n = ref 0 in
  Array.iteri (fun q c -> if alive.(q) then n := max !n (c + 1)) cls;
  let n = !n in
  let delta = Array.make n [||] in
  let accept = Array.make n false in
  for q = 0 to t.num_states - 1 do
    if alive.(q) then begin
      accept.(cls.(q)) <- t.accept.(q);
      if delta.(cls.(q)) = [||] then
        delta.(cls.(q)) <- Array.map (fun q' -> cls.(q')) t.delta.(q)
    end
  done;
  { alphabet = t.alphabet; num_states = n; start = cls.(t.start); accept; delta }

let universal ~alphabet =
  make ~alphabet ~start:0 ~accept:[| true |] ~delta:[| Array.make alphabet 0 |]

let empty ~alphabet =
  make ~alphabet ~start:0 ~accept:[| false |] ~delta:[| Array.make alphabet 0 |]

(* A trie node; [id] is its state number, assigned after the build. *)
type node = { kids : node option array; mutable whole : bool; mutable id : int }

let of_words ?(prefixes = false) ~alphabet words =
  let node () = { kids = Array.make alphabet None; whole = false; id = -1 } in
  let root = node () in
  List.iter
    (fun w ->
      let step n a =
        if a < 0 || a >= alphabet then
          invalid_arg "Dfa.of_words: letter out of range";
        match n.kids.(a) with
        | Some k -> k
        | None ->
          let k = node () in
          n.kids.(a) <- Some k;
          k
      in
      (List.fold_left step root w).whole <- true)
    words;
  (* number the nodes in preorder, children by ascending letter: the
     sorted order of the prefixes they spell *)
  let order = ref [] and count = ref 0 and stack = ref [ root ] in
  while !stack <> [] do
    let n = List.hd !stack in
    stack := List.tl !stack;
    n.id <- !count;
    incr count;
    order := n :: !order;
    for a = alphabet - 1 downto 0 do
      Option.iter (fun k -> stack := k :: !stack) n.kids.(a)
    done
  done;
  let dead = !count in
  let nodes = Array.of_list (List.rev !order) in
  let delta =
    Array.init (dead + 1) (fun i ->
        if i = dead then Array.make alphabet dead
        else Array.map (function Some k -> k.id | None -> dead) nodes.(i).kids)
  in
  let accept =
    Array.init (dead + 1) (fun i -> i < dead && (prefixes || nodes.(i).whole))
  in
  make ~alphabet ~start:0 ~accept ~delta

let pp fmt t =
  Format.fprintf fmt "@[<v>dfa: %d states over %d symbols, start %d@,"
    t.num_states t.alphabet t.start;
  Array.iteri
    (fun q row ->
      Format.fprintf fmt "%s%d:" (if t.accept.(q) then "*" else " ") q;
      Array.iteri (fun s q' -> Format.fprintf fmt " %d->%d" s q') row;
      Format.pp_print_cut fmt ())
    t.delta;
  Format.fprintf fmt "@]"
