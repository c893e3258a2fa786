module Ivec = Vec.Ivec

type reason =
  | Budget_exhausted
  | Deadline
  | Interrupted

let reason_to_string = function
  | Budget_exhausted -> "budget_exhausted"
  | Deadline -> "deadline"
  | Interrupted -> "interrupted"

type result =
  | Sat
  | Unsat
  | Unknown of reason

type limits = {
  max_conflicts : int option;
  max_propagations : int option;
  max_steps : int option;
  deadline : float option; (* absolute, [Unix.gettimeofday] scale *)
  stop : (unit -> bool) option; (* cancellation hook, polled with the deadline *)
}

let no_limits =
  { max_conflicts = None; max_propagations = None; max_steps = None;
    deadline = None; stop = None }

type share = {
  export : lbd:int -> Lit.t array -> unit;
  import : unit -> (int * Lit.t array) list;
}

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  solves : int;
  learnts : int;
  learnts_deleted : int;
  db_reductions : int;
  clauses : int;
  vars : int;
  lbd_sum : int;
  lbd_max : int;
  max_assumption_depth : int;
}

(* Fleet-wide counters live in the Obs metrics registry: a loop may
   create and discard several solvers (and with them their per-instance
   counters), so the query/conflict totals the bench harness and
   telemetry report must survive solver teardown. Hot-path
   counters are batched into the registry as per-solve deltas. *)
let m_solves = Obs.Metrics.counter "sat.solves"
let m_conflicts = Obs.Metrics.counter "sat.conflicts"
let m_propagations = Obs.Metrics.counter "sat.propagations"
let m_decisions = Obs.Metrics.counter "sat.decisions"
let m_restarts = Obs.Metrics.counter "sat.restarts"
let m_clauses_added = Obs.Metrics.counter "sat.clauses_added"
let m_learnts_deleted = Obs.Metrics.counter "sat.learnts_deleted"
let m_db_reductions = Obs.Metrics.counter "sat.db_reductions"
let m_learnt_db = Obs.Metrics.gauge "sat.learnt_db_size"
let m_lbd = Obs.Metrics.histogram "sat.lbd"
let m_assumption_depth = Obs.Metrics.histogram "sat.assumption_depth"

type global_stats = {
  g_solves : int;
  g_conflicts : int;
  g_propagations : int;
}

(* Thin shim over the registry, kept for the bench harness; the registry
   is the single source of truth, so the two views cannot drift. *)
let global_stats () =
  {
    g_solves = Obs.Metrics.counter_value m_solves;
    g_conflicts = Obs.Metrics.counter_value m_conflicts;
    g_propagations = Obs.Metrics.counter_value m_propagations;
  }

let reset_global_stats () =
  Obs.Metrics.set_counter m_solves 0;
  Obs.Metrics.set_counter m_conflicts 0;
  Obs.Metrics.set_counter m_propagations 0

type t = {
  mutable ok : bool; (* false once an empty clause has been derived *)
  mutable pages : int array array; (* the clause arena; see "clause arena" *)
  mutable fill : int array; (* per page: words in use *)
  mutable cur : int; (* the page new clauses go to; later pages are empty *)
  mutable n_clauses : int; (* clauses in the arena, problem + learnt *)
  mutable watches : Ivec.t array;
      (* indexed by literal; (clause offset, blocking literal) pairs *)
  mutable assign : int array; (* per var: 1 true, 0 false, -1 unassigned *)
  mutable level : int array;
  mutable reason : int array; (* clause offset or -1 *)
  mutable phase : bool array; (* saved polarity *)
  mutable activity : float array;
  mutable heap_pos : int array; (* position in [heap], -1 if absent *)
  heap : Ivec.t;
  trail : Ivec.t;
  trail_lim : Ivec.t;
  scopes : Ivec.t; (* activation variables of open assumption scopes *)
  out_learnt : Ivec.t; (* conflict-analysis buffer *)
  scratch : Ivec.t; (* pre-minimization copy, for mark clearing *)
  mutable seen : Bytes.t;
  mutable level_mark : int array; (* LBD computation, stamped by mark_gen *)
  mutable mark_gen : int;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable saved_model : bool array;
  (* learned-clause database control *)
  mutable n_learnts : int; (* live learned clauses *)
  mutable max_learnts : int; (* 0 = not yet initialized *)
  learnt_limit : int; (* initial cap override from [create], 0 = auto *)
  mutable simp_trail : int; (* root-trail size at the last simplification *)
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable solves : int;
  mutable learnts_deleted : int;
  mutable db_reductions : int;
  mutable lbd_sum : int;
  mutable lbd_max : int;
  mutable max_assumption_depth : int;
  (* diversification knobs (portfolio solving) *)
  default_phase : bool;
  seed : int;
  restart_base : int;
  (* cooperative cancellation *)
  mutable terminate : (unit -> bool) option;
  mutable poll : int; (* countdown to the next terminate poll *)
  (* learnt-clause sharing (portfolio solving) *)
  mutable share : share option;
  (* per-solve resource limits; the base_* fields snapshot the
     cumulative counters at the start of the current solve, so a limit
     bounds the delta of that one call *)
  mutable limits : limits;
  mutable steps : int; (* cumulative search steps (conflicts+decisions) *)
  mutable base_conflicts : int;
  mutable base_propagations : int;
  mutable base_steps : int;
  (* proof/certificate plane *)
  mutable proof : Proof.spool option;
  names : (int, string) Hashtbl.t; (* var -> constraint name, for cores *)
  mutable last_core : Lit.t list; (* failed assumptions of the last Unsat *)
}

let create ?(learnt_limit = 0) ?(seed = 0) ?(default_phase = false)
    ?(restart_base = 100) ?(proof = true) () =
  if restart_base < 1 then invalid_arg "Sat.create: restart_base must be >= 1";
  {
    ok = true;
    pages = [| [||] |];
    fill = [| 0 |];
    cur = 0;
    n_clauses = 0;
    watches = [||];
    assign = [||];
    level = [||];
    reason = [||];
    phase = [||];
    activity = [||];
    heap_pos = [||];
    heap = Ivec.create ();
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    scopes = Ivec.create ();
    out_learnt = Ivec.create ();
    scratch = Ivec.create ();
    seen = Bytes.create 0;
    level_mark = [||];
    mark_gen = 0;
    qhead = 0;
    nvars = 0;
    var_inc = 1.0;
    saved_model = [||];
    n_learnts = 0;
    max_learnts = 0;
    learnt_limit;
    simp_trail = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    solves = 0;
    learnts_deleted = 0;
    db_reductions = 0;
    lbd_sum = 0;
    lbd_max = 0;
    max_assumption_depth = 0;
    default_phase;
    seed;
    restart_base;
    terminate = None;
    poll = 0;
    share = None;
    limits = no_limits;
    steps = 0;
    base_conflicts = 0;
    base_propagations = 0;
    base_steps = 0;
    proof = (if proof then Proof.create_spool () else None);
    names = Hashtbl.create 7;
    last_core = [];
  }

let num_vars s = s.nvars
let num_clauses s = s.n_clauses
let num_conflicts s = s.conflicts
let num_learnts s = s.n_learnts

let stats s =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    solves = s.solves;
    learnts = s.n_learnts;
    learnts_deleted = s.learnts_deleted;
    db_reductions = s.db_reductions;
    clauses = s.n_clauses;
    vars = s.nvars;
    lbd_sum = s.lbd_sum;
    lbd_max = s.lbd_max;
    max_assumption_depth = s.max_assumption_depth;
  }

(* ----- variable order heap (max-heap on activity) ----- *)

let heap_lt s a b = s.activity.(a) > s.activity.(b)

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let vi = Ivec.get s.heap i and vp = Ivec.get s.heap p in
    if heap_lt s vi vp then begin
      Ivec.set s.heap i vp;
      Ivec.set s.heap p vi;
      s.heap_pos.(vp) <- i;
      s.heap_pos.(vi) <- p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let n = Ivec.size s.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  if l < n then begin
    let c =
      if r < n && heap_lt s (Ivec.get s.heap r) (Ivec.get s.heap l) then r
      else l
    in
    let vi = Ivec.get s.heap i and vc = Ivec.get s.heap c in
    if heap_lt s vc vi then begin
      Ivec.set s.heap i vc;
      Ivec.set s.heap c vi;
      s.heap_pos.(vc) <- i;
      s.heap_pos.(vi) <- c;
      heap_down s c
    end
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    Ivec.push s.heap v;
    s.heap_pos.(v) <- Ivec.size s.heap - 1;
    heap_up s (Ivec.size s.heap - 1)
  end

let heap_pop_max s =
  let top = Ivec.get s.heap 0 in
  let lst = Ivec.pop s.heap in
  s.heap_pos.(top) <- -1;
  if Ivec.size s.heap > 0 then begin
    Ivec.set s.heap 0 lst;
    s.heap_pos.(lst) <- 0;
    heap_down s 0
  end;
  top

(* ----- variables ----- *)

let grow_to len arr fill =
  let n = Array.length arr in
  if len <= n then arr
  else begin
    let a = Array.make (max len (max 16 (2 * n))) fill in
    Array.blit arr 0 a 0 n;
    a
  end

(* Deterministic avalanche of (seed, var): the low bits drive the
   initial-activity jitter that perturbs the variable order. *)
let mix seed v =
  let h = ref (seed + (v * 0x9E3779B9)) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x45D9F3B;
  h := !h lxor (!h lsr 16);
  h := !h * 0x45D9F3B;
  h := !h lxor (!h lsr 16);
  !h land 0x3FFFFFFF

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow_to s.nvars s.assign (-1);
  s.level <- grow_to s.nvars s.level 0;
  s.reason <- grow_to s.nvars s.reason (-1);
  s.phase <- grow_to s.nvars s.phase false;
  s.activity <- grow_to s.nvars s.activity 0.0;
  s.heap_pos <- grow_to s.nvars s.heap_pos (-1);
  s.level_mark <- grow_to (s.nvars + 1) s.level_mark (-1);
  if Bytes.length s.seen < s.nvars then begin
    let b = Bytes.make (max 16 (2 * s.nvars)) '\000' in
    Bytes.blit s.seen 0 b 0 (Bytes.length s.seen);
    s.seen <- b
  end;
  if Array.length s.watches < 2 * s.nvars then begin
    let w = Array.init (max 32 (4 * s.nvars)) (fun _ -> Ivec.create ()) in
    Array.blit s.watches 0 w 0 (Array.length s.watches);
    s.watches <- w
  end;
  s.phase.(v) <- s.default_phase;
  (* sub-var_inc jitter: invisible once real bumps arrive, but it breaks
     the insertion-order tie among untouched variables, so different
     seeds start their searches in different corners *)
  if s.seed <> 0 then
    s.activity.(v) <- float_of_int (mix s.seed v) *. 1e-12;
  heap_insert s v;
  v

(* [Lit]'s encoding (2v for v, 2v+1 for its negation), restated: the
   dev profile builds with [-opaque], so calls into [Lit] are never
   inlined, and these run for every literal propagation touches. *)
let[@inline] var l = l lsr 1

let lit_value s l =
  let a = s.assign.(var l) in
  if a < 0 then -1 else a lxor (l land 1)

(* Unchecked truth tests for the propagation loop: [assign] is sized by
   [new_var], so every literal of an allocated variable indexes it. *)
let[@inline] lit_true assign l =
  Array.unsafe_get assign (var l) = (l land 1) lxor 1

let[@inline] lit_false assign l = Array.unsafe_get assign (var l) = l land 1

let decision_level s = Ivec.size s.trail_lim

let enqueue s p reason =
  let v = var p in
  assert (s.assign.(v) < 0);
  s.assign.(v) <- (p land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Ivec.push s.trail p

let new_decision_level s = Ivec.push s.trail_lim (Ivec.size s.trail)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Ivec.get s.trail_lim lvl in
    for i = Ivec.size s.trail - 1 downto bound do
      let p = Ivec.get s.trail i in
      let v = var p in
      s.phase.(v) <- p land 1 = 0;
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.qhead <- bound;
    Ivec.shrink s.trail bound;
    Ivec.shrink s.trail_lim lvl
  end

(* ----- activity ----- *)

let var_rescale s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then var_rescale s;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* ----- clause arena ----- *)

(* Every clause lives in an [int] arena, MiniSat/CaDiCaL style: two
   header words — the size, then the LBD (-1 marks a problem clause) —
   followed by the literals. A clause is named by its offset, the page
   number in the high bits and the header's index in that page below
   [page_bits]; watches and reasons hold offsets. Clauses are appended
   in creation order, and compaction ([reduce_db], [simplify]) slides
   survivors down in place, so offsets stay in creation order and
   rebuilt watch lists come out in the same order every time.

   The arena is paged rather than one flat array because a growing flat
   array leaves each outgrown copy behind as major-heap garbage: on the
   synthesis benchmark that raised peak RSS from about 23 MB to 28-35 MB.
   Pages are never copied once full-sized; only page 0 grows (by
   doubling, from [first_page_words] up to [page_words]), so small
   solvers stay small. A clause never straddles pages, and one longer
   than [page_words] gets a page of its own. *)
let hdr = 2
let page_bits = 32
let index_mask = (1 lsl page_bits) - 1
let page_words = 16384
let first_page_words = 256
let[@inline] page_of s c = s.pages.(c lsr page_bits)
let[@inline] index_of c = c land index_mask

(* Reserve room for a [size]-literal clause, write its header and return
   its offset; the caller writes the literals after the header. *)
let alloc_clause s size ~lbd =
  let need = hdr + size in
  let k = s.cur in
  let len = Array.length s.pages.(k) in
  if s.fill.(k) + need > len then begin
    if k = 0 && s.fill.(0) + need <= page_words then begin
      let grown = max (2 * len) (max first_page_words (s.fill.(0) + need)) in
      let pg = Array.make (min page_words grown) 0 in
      Array.blit s.pages.(0) 0 pg 0 s.fill.(0);
      s.pages.(0) <- pg
    end
    else begin
      let k = k + 1 in
      if k = Array.length s.pages then begin
        s.pages <- Array.append s.pages (Array.make (k + 1) [||]);
        s.fill <- Array.append s.fill (Array.make (k + 1) 0)
      end;
      (* a spare page left by compaction is reused when it is big enough *)
      if Array.length s.pages.(k) < need then
        s.pages.(k) <- Array.make (max page_words need) 0;
      s.cur <- k
    end
  end;
  let k = s.cur in
  let pg = s.pages.(k) and b = s.fill.(k) in
  pg.(b) <- size;
  pg.(b + 1) <- lbd;
  s.fill.(k) <- b + need;
  s.n_clauses <- s.n_clauses + 1;
  if lbd >= 0 then s.n_learnts <- s.n_learnts + 1;
  (k lsl page_bits) lor b

(* Watch lists hold (clause offset, blocking literal) pairs; the blocker
   is some other literal of the clause, checked before the clause itself
   is touched so satisfied clauses cost one array read instead of a
   cache miss on the clause. *)
let attach s c =
  let pg = page_of s c and b = index_of c + hdr in
  let l0 = pg.(b) and l1 = pg.(b + 1) in
  Ivec.push s.watches.(l0) c;
  Ivec.push s.watches.(l0) l1;
  Ivec.push s.watches.(l1) c;
  Ivec.push s.watches.(l1) l0

let push_clause_list s lits ~lbd =
  let c = alloc_clause s (List.length lits) ~lbd in
  let pg = page_of s c and b = index_of c + hdr in
  List.iteri (fun i l -> pg.(b + i) <- l) lits;
  attach s c;
  c

(* The literals of the clause at [c], copied out for the proof and
   share hooks (the arena itself is never handed out). *)
let clause_lits s c =
  let pg = page_of s c and b = index_of c in
  Array.sub pg (b + hdr) pg.(b)

(* [f] on the offset of every clause, in creation order. *)
let iter_clauses s f =
  for k = 0 to s.cur do
    let pg = s.pages.(k) in
    let b = ref 0 in
    while !b < s.fill.(k) do
      f ((k lsl page_bits) lor !b);
      b := !b + hdr + pg.(!b)
    done
  done

let reattach_all s =
  Array.iter Ivec.clear s.watches;
  iter_clauses s (attach s)

(* Normalize a root-level clause: sorted literals, tautologies and
   clauses satisfied at level 0 signalled as [None], false literals
   dropped. One linear pass over the sorted literals: positive and
   negative occurrences of a variable encode as adjacent integers
   (2v, 2v+1), so a tautology shows up as two neighbours with equal
   [Lit.var]; level-0 values fold in the same pass. *)
let normalize_root_clause s lits =
  let lits = List.sort_uniq compare lits in
  let rec scan acc = function
    | [] -> Some (List.rev acc)
    | l :: rest ->
      if match rest with
        | l' :: _ -> var l' = var l
        | [] -> false
      then None (* p and ~p: tautology *)
      else (
        match lit_value s l with
        | 1 -> None (* already satisfied at level 0 *)
        | 0 -> scan acc rest (* false at level 0: drop the literal *)
        | _ -> scan (l :: acc) rest)
  in
  scan [] lits

(* [add_clause_permanent] ignores open assumption scopes: the clause is
   part of the problem forever. Tseitin gate definitions go through here
   because encoders cache the wires they return across scope pops. *)
let add_clause_permanent s lits =
  assert (decision_level s = 0);
  if s.ok then begin
    (* log the caller's literals, not the normalized form: the proof's
       CNF must be the asserted formula (root-level strengthening is
       transparent to unit propagation, so a checker derives the same
       consequences either way) *)
    (match s.proof with
    | Some sp -> Proof.log_original sp lits
    | None -> ());
    match normalize_root_clause s lits with
    | None -> ()
    | Some [] -> s.ok <- false
    | Some [ p ] -> enqueue s p (-1)
    | Some lits ->
      Obs.Metrics.incr m_clauses_added;
      ignore (push_clause_list s lits ~lbd:(-1))
  end

(* ----- assumption-literal scopes ----- *)

let num_scopes s = Ivec.size s.scopes

let push s =
  let v = new_var s in
  Ivec.push s.scopes v

let pop s =
  if Ivec.size s.scopes = 0 then invalid_arg "Sat.pop: no open scope";
  cancel_until s 0;
  let v = Ivec.pop s.scopes in
  (* permanently satisfies (and thereby retracts) every clause guarded by
     this scope's activation literal *)
  add_clause_permanent s [ Lit.neg_of v ]

(* Clauses added inside a scope carry the negated activation literal of
   the innermost scope; the literal is assumed true during [solve], so
   the clause is active exactly while the scope is open. *)
let add_clause s lits =
  if Ivec.size s.scopes = 0 then add_clause_permanent s lits
  else add_clause_permanent s (Lit.neg_of (Ivec.last s.scopes) :: lits)

(* ----- propagation ----- *)

(* The hot loop: no allocation, and unchecked reads of the arena, the
   watch lists and [assign] (offsets come from watches, literals from
   allocated variables). Watch list [ws] is compacted in place; a
   replacement watch goes to the list of a non-false literal, never to
   [ws] itself, so [ws]'s backing array stays put while it is scanned. *)
let propagate s =
  let confl = ref (-1) in
  let trail = s.trail in
  let pages = s.pages and assign = s.assign in
  while !confl < 0 && s.qhead < trail.Ivec.sz do
    let p = Array.unsafe_get trail.Ivec.data s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = p lxor 1 in
    let ws = Array.unsafe_get s.watches false_lit in
    let wd = ws.Ivec.data in
    let n = ws.Ivec.sz in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Array.unsafe_get wd !i in
      let blocker = Array.unsafe_get wd (!i + 1) in
      i := !i + 2;
      if lit_true assign blocker then begin
        Array.unsafe_set wd !j c;
        Array.unsafe_set wd (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let pg = Array.unsafe_get pages (c lsr page_bits) in
        let b = index_of c in
        let w0 = b + hdr in
        if Array.unsafe_get pg w0 = false_lit then begin
          Array.unsafe_set pg w0 (Array.unsafe_get pg (w0 + 1));
          Array.unsafe_set pg (w0 + 1) false_lit
        end;
        let first = Array.unsafe_get pg w0 in
        if lit_true assign first then begin
          Array.unsafe_set wd !j c;
          Array.unsafe_set wd (!j + 1) first;
          j := !j + 2
        end
        else begin
          let stop = w0 + Array.unsafe_get pg b in
          let k = ref (w0 + 2) in
          while !k < stop && lit_false assign (Array.unsafe_get pg !k) do
            incr k
          done;
          if !k < stop then begin
            (* found a replacement watch *)
            let l = Array.unsafe_get pg !k in
            Array.unsafe_set pg (w0 + 1) l;
            Array.unsafe_set pg !k false_lit;
            let wl = Array.unsafe_get s.watches l in
            Ivec.push wl c;
            Ivec.push wl first
          end
          else begin
            Array.unsafe_set wd !j c;
            Array.unsafe_set wd (!j + 1) first;
            j := !j + 2;
            if lit_false assign first then begin
              confl := c;
              (* conflict: keep the remaining watches untouched *)
              while !i < n do
                Array.unsafe_set wd !j (Array.unsafe_get wd !i);
                incr i;
                incr j
              done
            end
            else enqueue s first c
          end
        end
      end
    done;
    Ivec.shrink ws !j
  done;
  !confl

(* ----- learned-clause database reduction ----- *)

let locked s c =
  let v = var (page_of s c).(index_of c + hdr) in
  s.assign.(v) >= 0 && s.reason.(v) = c

(* LBD value marking a clause [reduce_db] has condemned. *)
let deleted = -2

(* Slide the surviving clauses down the arena in place, keeping their
   order. [keep page b] is the size the clause at index [b] of [page]
   keeps, or [-1] to drop it; with [strengthen], a survivor's literals
   false at the root are dropped on the way. The write cursor never
   passes the read cursor: a survivor that does not fit in the rest of
   the write page moves on to the next page, at worst back to the start
   of its own page, and within one page literal [j] is read before index
   [w + hdr + j' <= b + hdr + j] is written. A survivor's reason pointer
   is forwarded as it moves: a reason clause propagated its slot-0
   literal, so it is the reason of that literal's variable exactly when
   it is locked. Pages past the last one written are emptied; one is
   kept as a spare, the rest are released. *)
let compact s ~strengthen keep =
  let wk = ref 0 and w = ref 0 and n = ref 0 in
  for k = 0 to s.cur do
    let src = s.pages.(k) in
    let r = ref 0 in
    let stop = s.fill.(k) in
    while !r < stop do
      let b = !r in
      r := b + hdr + src.(b);
      let size = keep src b in
      if size >= 0 then begin
        while !w + hdr + size > Array.length s.pages.(!wk) do
          s.fill.(!wk) <- !w;
          incr wk;
          w := 0
        done;
        let dst = s.pages.(!wk) and lbd = src.(b + 1) in
        if strengthen then begin
          let j = ref (!w + hdr) in
          for i = b + hdr to b + hdr + src.(b) - 1 do
            let l = src.(i) in
            if lit_value s l <> 0 then begin
              dst.(!j) <- l;
              incr j
            end
          done
        end
        else Array.blit src (b + hdr) dst (!w + hdr) size;
        dst.(!w) <- size;
        dst.(!w + 1) <- lbd;
        let v = var dst.(!w + hdr) in
        if s.reason.(v) = (k lsl page_bits) lor b && s.assign.(v) >= 0 then
          s.reason.(v) <- (!wk lsl page_bits) lor !w;
        w := !w + hdr + size;
        incr n
      end
    done
  done;
  s.fill.(!wk) <- !w;
  for k = !wk + 1 to Array.length s.pages - 1 do
    s.fill.(k) <- 0;
    if k > !wk + 1 then s.pages.(k) <- [||]
  done;
  s.cur <- !wk;
  s.n_clauses <- !n;
  reattach_all s

(* Delete the worst half of the learned clauses by LBD (ties broken
   towards longer clauses, then later ones); glue clauses (LBD <= 2) and
   clauses currently acting as reasons are kept. The arena is compacted
   in place, watches rebuilt, reasons forwarded. *)
let reduce_db s =
  s.db_reductions <- s.db_reductions + 1;
  Obs.Metrics.incr m_db_reductions;
  let cand = ref [] in
  let ncand = ref 0 in
  iter_clauses s (fun c ->
      let pg = page_of s c and b = index_of c in
      let lbd = pg.(b + 1) in
      if lbd > 2 && not (locked s c) then begin
        cand := (lbd, pg.(b), c) :: !cand;
        incr ncand
      end);
  (* worst first: highest LBD, then longest *)
  let cand = List.sort (fun a b -> compare b a) !cand in
  let ndelete = min !ncand (s.n_learnts / 2) in
  List.iteri
    (fun i (_, _, c) ->
      if i < ndelete then (page_of s c).(index_of c + 1) <- deleted)
    cand;
  (* deletion lines keep an offline checker's database (and its unit
     propagation) small; on a shared spool they are suppressed — a
     clause this member discards may still be live in another *)
  let log =
    match s.proof with
    | Some sp when not (Proof.is_shared sp) -> Some sp
    | _ -> None
  in
  compact s ~strengthen:false (fun pg b ->
      if pg.(b + 1) <> deleted then pg.(b)
      else begin
        (match log with
        | Some sp -> Proof.log_delete sp (Array.sub pg (b + hdr) pg.(b))
        | None -> ());
        -1
      end);
  s.n_learnts <- s.n_learnts - ndelete;
  s.learnts_deleted <- s.learnts_deleted + ndelete;
  Obs.Metrics.add m_learnts_deleted ndelete;
  s.max_learnts <- (s.max_learnts * 11 / 10) + 16

(* ----- level-0 simplification ----- *)

(* Remove clauses satisfied at the root level and strengthen the rest by
   deleting their root-false literals. Retraction (scope pops,
   [Solver.retract]) works by asserting a unit that permanently
   satisfies every clause of the retired scope, so a long-lived
   incremental solver accumulates dead clauses in its watch lists; this
   sweep reclaims them. Must be called at decision level 0 with
   propagation at fixpoint, so no surviving clause is all-false or
   unit. *)
let simplify s =
  (* root-level facts never need their reasons again: conflict analysis
     ignores level-0 literals — and this releases every clause lock *)
  for i = 0 to Ivec.size s.trail - 1 do
    s.reason.(var (Ivec.get s.trail i)) <- -1
  done;
  compact s ~strengthen:true (fun pg b ->
      let sat = ref false and k = ref 0 in
      for i = b + hdr to b + hdr + pg.(b) - 1 do
        match lit_value s pg.(i) with
        | 1 -> sat := true
        | 0 -> ()
        | _ -> incr k
      done;
      if not !sat then !k
      else begin
        if pg.(b + 1) >= 0 then begin
          s.n_learnts <- s.n_learnts - 1;
          s.learnts_deleted <- s.learnts_deleted + 1;
          Obs.Metrics.incr m_learnts_deleted
        end;
        -1
      end);
  s.simp_trail <- Ivec.size s.trail

(* ----- conflict analysis (first UIP) ----- *)

(* Number of distinct decision levels among the literals of [lits];
   the literal-block distance of Audemard–Simon. *)
let lbd_of s lits =
  s.mark_gen <- s.mark_gen + 1;
  let gen = s.mark_gen in
  let distinct = ref 0 in
  for i = 0 to Ivec.size lits - 1 do
    let lvl = s.level.(var (Ivec.get lits i)) in
    if s.level_mark.(lvl) <> gen then begin
      s.level_mark.(lvl) <- gen;
      incr distinct
    end
  done;
  !distinct

(* Is literal [q], propagated by the clause at [r], implied by the learnt
   clause? Every other literal of its reason must already be in the
   clause (still marked seen) or assigned at level 0. *)
let redundant s q r =
  let pg = page_of s r and b = index_of r in
  let qv = var q in
  let stop = b + hdr + pg.(b) in
  let k = ref (b + hdr) in
  while
    !k < stop
    &&
    let v = var pg.(!k) in
    v = qv || Bytes.get s.seen v = '\001' || s.level.(v) = 0
  do
    incr k
  done;
  !k >= stop

(* Fills [s.out_learnt] with the learnt clause (asserting literal first,
   a literal of the backjump level second) and returns the backjump
   level. Uses the persistent [seen]/[out_learnt]/[scratch] buffers:
   nothing is allocated on this path. *)
let analyze s confl =
  let out = s.out_learnt in
  let seen = s.seen in
  Ivec.clear out;
  Ivec.push out 0 (* slot 0: asserting literal, patched below *);
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (Ivec.size s.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let pg = page_of s !confl and b = index_of !confl in
    let start = if !p < 0 then 0 else 1 in
    for j = b + hdr + start to b + hdr + pg.(b) - 1 do
      let q = pg.(j) in
      let v = var q in
      if (not (Bytes.unsafe_get seen v = '\001')) && s.level.(v) > 0 then begin
        Bytes.unsafe_set seen v '\001';
        var_bump s v;
        if s.level.(v) >= decision_level s then incr path_c
        else Ivec.push out q
      end
    done;
    (* find the next marked literal on the trail *)
    while Bytes.get seen (var (Ivec.get s.trail !index)) <> '\001' do
      decr index
    done;
    p := Ivec.get s.trail !index;
    decr index;
    Bytes.set seen (var !p) '\000';
    decr path_c;
    if !path_c > 0 then confl := s.reason.(var !p) else continue := false
  done;
  Ivec.set out 0 (Lit.neg !p);
  (* local clause minimization (Sörensson–Biere): a literal is redundant
     when every antecedent in its reason clause is already in the learnt
     clause (still marked seen) or assigned at level 0 *)
  let scratch = s.scratch in
  Ivec.clear scratch;
  for i = 0 to Ivec.size out - 1 do
    Ivec.push scratch (Ivec.get out i)
  done;
  let j = ref 1 in
  for i = 1 to Ivec.size out - 1 do
    let q = Ivec.get out i in
    let r = s.reason.(var q) in
    if not (r >= 0 && redundant s q r) then begin
      Ivec.set out !j q;
      incr j
    end
  done;
  Ivec.shrink out !j;
  (* clear marks of every literal considered, removed ones included *)
  for i = 1 to Ivec.size scratch - 1 do
    Bytes.set seen (var (Ivec.get scratch i)) '\000'
  done;
  (* backjump level = max level among the non-asserting literals; that
     literal moves to slot 1 so it is watched after learning *)
  if Ivec.size out = 1 then 0
  else begin
    let best = ref 1 in
    for i = 2 to Ivec.size out - 1 do
      if s.level.(var (Ivec.get out i)) > s.level.(var (Ivec.get out !best))
      then best := i
    done;
    let tmp = Ivec.get out 1 in
    Ivec.set out 1 (Ivec.get out !best);
    Ivec.set out !best tmp;
    s.level.(var (Ivec.get out 1))
  end

(* ----- search ----- *)

exception Found of result
exception Stop of reason

let set_terminate s f =
  s.terminate <- f;
  s.poll <- 0

let set_share s sh = s.share <- sh

(* Adopt foreign learnt clauses at a restart boundary (decision level
   0). Shared clauses are logical consequences of the common problem,
   so adding any subset preserves the verdict; each is normalized like
   a root-level clause — satisfied or tautological ones are dropped,
   units enqueue at level 0, an empty one proves unsatisfiability. The
   clause keeps its foreign LBD, so database reduction can reclaim it
   like any home-grown learnt. Clauses mentioning unallocated variables
   are rejected outright (a misconfigured exchange must not crash the
   solver). *)
let import_shared s =
  match s.share with
  | None -> ()
  | Some sh ->
    List.iter
      (fun (lbd, lits) ->
        if
          s.ok
          && Array.for_all (fun l -> var l < s.nvars) lits
        then
          match normalize_root_clause s (Array.to_list lits) with
          | None -> () (* tautology, or already satisfied at level 0 *)
          | Some [] -> s.ok <- false
          | Some [ p ] -> enqueue s p (-1)
          | Some lits -> ignore (push_clause_list s lits ~lbd:(max 1 lbd)))
      (sh.import ())

let set_limits s l =
  s.limits <- l;
  s.poll <- 0

let clear_limits s = s.limits <- no_limits
let limits s = s.limits

(* Run once per search step (conflict or decision), before that step
   does any work — so a pre-set terminate flag or an already-exhausted
   budget deterministically beats a verdict the same step would have
   produced. The counter limits are exact (checked every step); the
   terminate callback and the wall clock are only consulted every 128
   steps, keeping cancellation latency well under a restart at no
   measurable cost to the hot loop. *)
let check_stop s =
  s.steps <- s.steps + 1;
  (match s.limits.max_conflicts with
  | Some m when s.conflicts - s.base_conflicts >= m ->
    raise (Stop Budget_exhausted)
  | _ -> ());
  (match s.limits.max_propagations with
  | Some m when s.propagations - s.base_propagations >= m ->
    raise (Stop Budget_exhausted)
  | _ -> ());
  (match s.limits.max_steps with
  | Some m when s.steps - s.base_steps >= m -> raise (Stop Budget_exhausted)
  | _ -> ());
  match (s.terminate, s.limits.stop, s.limits.deadline) with
  | None, None, None -> ()
  | terminate, stop, deadline ->
    s.poll <- s.poll - 1;
    if s.poll <= 0 then begin
      s.poll <- 128;
      (match terminate with
      | Some f when f () -> raise (Stop Interrupted)
      | _ -> ());
      (match stop with
      | Some f when f () -> raise (Stop Interrupted)
      | _ -> ());
      match deadline with
      | Some d when Unix.gettimeofday () > d -> raise (Stop Deadline)
      | _ -> ()
    end

let luby i =
  (* Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
     Iterative form of "find the enclosing 2^k - 1 block, recurse into its
     tail": total work O(log^2 i), no recursion. *)
  let i = ref i in
  let res = ref (-1) in
  while !res < 0 do
    let k = ref 1 in
    while (1 lsl !k) - 1 < !i do
      incr k
    done;
    if (1 lsl !k) - 1 = !i then res := 1 lsl (!k - 1)
    else i := !i - (1 lsl (!k - 1)) + 1
  done;
  !res

let save_model s =
  let m = Array.make s.nvars false in
  for v = 0 to s.nvars - 1 do
    m.(v) <- s.assign.(v) = 1
  done;
  s.saved_model <- m

let handle_conflict s ci =
  s.conflicts <- s.conflicts + 1;
  if decision_level s = 0 then begin
    (* root conflict: independent of any assumption, so the core is
       empty and the empty clause is derivable by propagation alone *)
    s.last_core <- [];
    raise (Found Unsat)
  end;
  let blevel = analyze s ci in
  cancel_until s blevel;
  let out = s.out_learnt in
  (if Ivec.size out = 1 then begin
     Obs.Metrics.observe m_lbd 1;
     s.lbd_sum <- s.lbd_sum + 1;
     if s.lbd_max = 0 then s.lbd_max <- 1;
     (* log before export: on a shared spool the clause must be in the
        log before any other member can learn from it *)
     (match s.proof with
     | Some sp -> Proof.log_learnt_unit sp (Ivec.get out 0)
     | None -> ());
     (match s.share with
     | Some sh -> sh.export ~lbd:1 [| Ivec.get out 0 |]
     | None -> ());
     enqueue s (Ivec.get out 0) (-1)
   end
   else begin
     let n = Ivec.size out in
     let lbd = lbd_of s out in
     Obs.Metrics.observe m_lbd lbd;
     s.lbd_sum <- s.lbd_sum + lbd;
     if lbd > s.lbd_max then s.lbd_max <- lbd;
     let c = alloc_clause s n ~lbd in
     let pg = page_of s c and b = index_of c + hdr in
     for i = 0 to n - 1 do
       pg.(b + i) <- Ivec.get out i
     done;
     (* the proof and share hooks get their own copy, made only when
        one of them is installed *)
     (match (s.proof, s.share) with
     | None, None -> ()
     | proof, share -> (
       let lits = clause_lits s c in
       (match proof with
       | Some sp -> Proof.log_learnt sp lits
       | None -> ());
       match share with
       | Some sh -> sh.export ~lbd lits
       | None -> ()));
     attach s c;
     enqueue s (Ivec.get out 0) c
   end);
  var_decay s

(* Final-conflict analysis (MiniSat's analyzeFinal): which assumptions
   are to blame for a conflict found while establishing them? Mark the
   seed literals' variables, walk the trail top-down replacing each
   marked propagated literal by its reason clause; the pseudo-decisions
   that remain are the culpable assumptions, returned as assumed (the
   negated core is a clause implied by the problem — it is RUP with
   respect to the clause database, which is what {!Proof.certify}
   appends). Root-level literals never contribute. Only runs on the
   Unsat path, so the cost is invisible to searching. *)
let analyze_final s seed_n seed_get =
  if decision_level s = 0 then []
  else begin
    let seen = s.seen in
    let marked = ref 0 in
    let mark l =
      let v = var l in
      if s.level.(v) > 0 && Bytes.get seen v <> '\001' then begin
        Bytes.set seen v '\001';
        incr marked
      end
    in
    for i = 0 to seed_n - 1 do
      mark (seed_get i)
    done;
    let core = ref [] in
    let bound = Ivec.get s.trail_lim 0 in
    let i = ref (Ivec.size s.trail - 1) in
    while !marked > 0 && !i >= bound do
      let p = Ivec.get s.trail !i in
      let v = var p in
      if Bytes.get seen v = '\001' then begin
        Bytes.set seen v '\000';
        decr marked;
        let r = s.reason.(v) in
        if r < 0 then core := p :: !core
        else begin
          (* slot 0 of a reason clause is the literal it propagated —
             marking it again would leave [v] seen forever and poison
             later conflict analyses *)
          let pg = page_of s r and b = index_of r in
          for j = b + hdr + 1 to b + hdr + pg.(b) - 1 do
            mark pg.(j)
          done
        end
      end;
      decr i
    done;
    !core
  end

(* Re-establish assumptions as pseudo-decisions; raises [Found Unsat] when
   an assumption is already false under the current prefix. Both failure
   sites record the subset of assumptions responsible in [last_core]. *)
let rec assume s assumptions =
  if decision_level s < Array.length assumptions then begin
    let p = assumptions.(decision_level s) in
    match lit_value s p with
    | 1 ->
      new_decision_level s;
      assume s assumptions
    | 0 ->
      (* [p] is false under the prefix: blame [p] plus whatever forced
         its complement *)
      s.last_core <- p :: analyze_final s 1 (fun _ -> p);
      raise (Found Unsat)
    | _ ->
      new_decision_level s;
      enqueue s p (-1);
      (* propagate before the next assumption so values are visible *)
      let c = propagate s in
      if c >= 0 then begin
        let pg = page_of s c and b = index_of c in
        s.last_core <- analyze_final s pg.(b) (fun i -> pg.(b + hdr + i));
        raise (Found Unsat)
      end
      else assume s assumptions
  end

(* Pop the most active unassigned variable; -1 once the heap runs dry. *)
let rec pick_branch s =
  if Ivec.size s.heap = 0 then -1
  else
    let v = heap_pop_max s in
    if s.assign.(v) < 0 then v else pick_branch s

let decide s =
  let v = pick_branch s in
  if v < 0 then begin
    save_model s;
    raise (Found Sat)
  end
  else begin
    s.decisions <- s.decisions + 1;
    new_decision_level s;
    enqueue s (Lit.make v s.phase.(v)) (-1)
  end

let search s assumptions budget =
  let local = ref 0 in
  let rec loop () =
    check_stop s;
    let ci = propagate s in
    if ci >= 0 then begin
      incr local;
      handle_conflict s ci;
      if s.max_learnts > 0 && s.n_learnts > s.max_learnts then reduce_db s;
      loop ()
    end
    else if !local >= budget then begin
      cancel_until s 0;
      s.restarts <- s.restarts + 1;
      `Restart
    end
    else begin
      assume s assumptions;
      decide s;
      loop ()
    end
  in
  loop ()

let run_solve s assumptions =
  (* every Unsat path below either leaves this (core-less verdicts:
     empty clause already derived, root-level conflict) or overwrites
     it with the failed assumptions *)
  s.last_core <- [];
  if not s.ok then Unsat
  else begin
    (* limits bound this one call: snapshot the cumulative counters *)
    s.base_conflicts <- s.conflicts;
    s.base_propagations <- s.propagations;
    s.base_steps <- s.steps;
    (* the cap tracks problem size: an incremental solver keeps gaining
       clauses after its first solve, and must not be stuck with the cap
       a small prefix of the problem suggested *)
    if s.learnt_limit > 0 then begin
      if s.max_learnts = 0 then s.max_learnts <- s.learnt_limit
    end
    else
      s.max_learnts <-
        max s.max_learnts (max 2000 ((s.n_clauses - s.n_learnts) / 3));
    (* scope activation literals are standing assumptions *)
    let assumptions =
      Array.of_list
        (List.map Lit.pos (Ivec.to_list s.scopes) @ assumptions)
    in
    (* settle the root level, then sweep out clauses retired since the
       last solve (retracted scopes leave permanently satisfied clauses
       behind; fresh root units strengthen what remains) *)
    if propagate s >= 0 then s.ok <- false
    else if Ivec.size s.trail > s.simp_trail then simplify s;
    if not s.ok then Unsat
    else
      try
        (* foreign clauses come aboard at restart boundaries only: the
           solver is at decision level 0 there, so imported units can
           enqueue directly and new clauses need no backtracking *)
        let rec run i =
          import_shared s;
          if not s.ok then raise (Found Unsat);
          match search s assumptions (s.restart_base * luby i) with
          | `Restart -> run (i + 1)
        in
        run 1
      with
      | Found r ->
        cancel_until s 0;
        r
      | Stop reason ->
        (* budget/deadline/interrupt: back out to level 0 with clauses
           and statistics intact — the solver stays usable *)
        cancel_until s 0;
        Unknown reason
  end

let set_name s v name = Hashtbl.replace s.names v name

let name_of_lit s l =
  match Hashtbl.find_opt s.names (var l) with
  | Some n -> n
  | None -> Printf.sprintf "lit%d" (Lit.to_int l)

let unsat_core s = s.last_core
let core_names s = List.map (name_of_lit s) s.last_core
let set_proof s sp = s.proof <- sp
let proof_spool s = s.proof

let push_named s name =
  let v = new_var s in
  Hashtbl.replace s.names v name;
  Ivec.push s.scopes v

let solve_with_assumptions s assumptions =
  s.solves <- s.solves + 1;
  Obs.Metrics.incr m_solves;
  let adepth = List.length assumptions + Ivec.size s.scopes in
  Obs.Metrics.observe m_assumption_depth adepth;
  if adepth > s.max_assumption_depth then s.max_assumption_depth <- adepth;
  let sp =
    if Obs.enabled () then Obs.start_span "sat.solve" else Obs.null_span
  in
  let c0 = s.conflicts and d0 = s.decisions in
  let p0 = s.propagations and r0 = s.restarts in
  (* an injected fault at the solve boundary stands in for a crashed or
     unreachable engine: the call reports Unknown without searching *)
  let r =
    if Fault.fire Fault.Solver_call then Ok (Unknown Interrupted)
    else
      match run_solve s assumptions with
      | r -> Ok r
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (* fleet-wide registry totals, batched as per-solve deltas *)
  Obs.Metrics.add m_conflicts (s.conflicts - c0);
  Obs.Metrics.add m_decisions (s.decisions - d0);
  Obs.Metrics.add m_propagations (s.propagations - p0);
  Obs.Metrics.add m_restarts (s.restarts - r0);
  Obs.Metrics.set_gauge m_learnt_db (float_of_int s.n_learnts);
  if Obs.enabled () then begin
    let result =
      match r with
      | Ok Sat -> "sat"
      | Ok Unsat -> "unsat"
      | Ok (Unknown reason) -> reason_to_string reason
      | Error _ -> "error"
    in
    let delta =
      [
        ("conflicts", Obs.Int (s.conflicts - c0));
        ("decisions", Obs.Int (s.decisions - d0));
        ("propagations", Obs.Int (s.propagations - p0));
        ("restarts", Obs.Int (s.restarts - r0));
        ("vars", Obs.Int s.nvars);
        ("clauses", Obs.Int s.n_clauses);
        ("learnts", Obs.Int s.n_learnts);
        ("assumptions", Obs.Int adepth);
      ]
    in
    Obs.end_span sp ~attrs:(("result", Obs.String result) :: delta);
    Obs.solver_call ~result delta
  end;
  (* certificate issue rides the Unsat path only, after the solver_call
     event so a trace reader can pair the two (at most one certificate
     per unsat verdict); with the plane disabled the spool is [None]
     and nothing here runs *)
  (match (r, s.proof) with
  | Ok Unsat, Some spool -> (
    let core = s.last_core in
    let loop = Obs.current_loop () in
    match
      Proof.certify spool ~core ~names:(core_names s) ~maxvar:s.nvars ~loop
    with
    | Some c ->
      if Obs.enabled () then
        Obs.emit
          (Obs.Certificate
             {
               loop;
               attrs =
                 [
                   ("cert", Obs.Int c.Proof.cert_id);
                   ("core_size", Obs.Int c.Proof.cert_core_size);
                   ("proof_bytes", Obs.Int c.Proof.cert_drat_bytes);
                   ("cnf_bytes", Obs.Int c.Proof.cert_cnf_bytes);
                   ( "core",
                     Obs.String (String.concat "," (core_names s)) );
                 ];
             })
    | None -> ())
  | _ -> ());
  match r with
  | Ok r -> r
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let solve s = solve_with_assumptions s []

let value s v =
  if v < Array.length s.saved_model then s.saved_model.(v) else false

let model s = Array.copy s.saved_model
