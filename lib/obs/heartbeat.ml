type status = {
  hb_loop : string;
  hb_iteration : int;
  hb_beats : int;
  hb_last_advance : float;
  hb_stalled : bool;
  hb_stalled_since : float option;
  hb_attrs : (string * Json.t) list;
}

type entry = {
  mutable e_iteration : int;
  mutable e_beats : int;
  mutable e_last_advance : float;
  mutable e_stalled : bool;
  mutable e_stalled_since : float option;
  mutable e_attrs : (string * Json.t) list;
  mutable e_progress_at : float; (* time of the last due progress record *)
}

let lock = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 8

let status_of loop e =
  {
    hb_loop = loop;
    hb_iteration = e.e_iteration;
    hb_beats = e.e_beats;
    hb_last_advance = e.e_last_advance;
    hb_stalled = e.e_stalled;
    hb_stalled_since = e.e_stalled_since;
    hb_attrs = e.e_attrs;
  }

let fresh now =
  {
    e_iteration = -1;
    e_beats = 0;
    e_last_advance = now;
    e_stalled = false;
    e_stalled_since = None;
    e_attrs = [];
    e_progress_at = neg_infinity;
  }

let started ~loop ~now =
  Mutex.lock lock;
  Hashtbl.replace table loop (fresh now);
  Mutex.unlock lock

let beat ~loop ~now ~iteration ~attrs ~every =
  Mutex.lock lock;
  let e =
    match Hashtbl.find_opt table loop with
    | Some e -> e
    | None ->
      let e = fresh now in
      Hashtbl.add table loop e;
      e
  in
  e.e_beats <- e.e_beats + 1;
  if iteration > e.e_iteration then begin
    e.e_iteration <- iteration;
    e.e_last_advance <- now;
    e.e_stalled <- false;
    e.e_stalled_since <- None;
    e.e_attrs <- attrs
  end;
  let due = every > 0.0 && now -. e.e_progress_at >= every in
  if due then e.e_progress_at <- now;
  let it = e.e_iteration in
  Mutex.unlock lock;
  if due then Some it else None

let finish ~loop =
  Mutex.lock lock;
  Hashtbl.remove table loop;
  Mutex.unlock lock

let poll ~now ~window =
  Mutex.lock lock;
  let newly = ref [] in
  Hashtbl.iter
    (fun loop e ->
      if (not e.e_stalled) && now -. e.e_last_advance > window then begin
        e.e_stalled <- true;
        e.e_stalled_since <- Some now;
        newly := status_of loop e :: !newly
      end)
    table;
  Mutex.unlock lock;
  List.sort compare !newly

let active () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun loop e acc -> status_of loop e :: acc) table [] in
  Mutex.unlock lock;
  List.sort compare all

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock
