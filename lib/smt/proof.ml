(* Append-only proof spools with lazy materialization. A stream buffers
   clause lines in memory and opens its file only on buffer overflow or
   at the first certificate, so solvers that never prove anything
   unsatisfiable (scratch encoders, probe contexts, SAT-only runs) cost
   a Buffer and nothing else. Certificates are prefix pointers into the
   spool files plus the verdict's core, recorded as one JSON line in a
   shared index; the spool itself is never rewritten. *)

let m_bytes = Obs.Metrics.counter "proof.bytes"
let m_clauses = Obs.Metrics.counter "proof.clauses_logged"
let m_deletions = Obs.Metrics.counter "proof.deletions_logged"
let m_certs = Obs.Metrics.counter "proof.certificates"
let m_core_size = Obs.Metrics.histogram "proof.core_size"

let spill_threshold = 1 lsl 18 (* 256 KiB of buffered lines *)

type stream = {
  st_path : string;
  st_buf : Buffer.t;
  mutable st_chan : out_channel option;
  mutable st_bytes : int; (* total appended = on disk + buffered *)
  mutable st_scratch : Bytes.t; (* line being rendered, grown on demand *)
}

type spool = {
  sp_id : int;
  sp_lock : Mutex.t; (* certify and disable only; see [log_original] *)
  cnf : stream;
  drat : stream;
  mutable sp_cnf_clauses : int;
  (* registry deltas batched here and pushed at certify/disable: two
     atomic adds per logged clause are measurable against an encoder
     that generates clauses every few hundred nanoseconds *)
  mutable sp_pending_bytes : int;
  mutable sp_pending_clauses : int;
  mutable sp_pending_dels : int;
}

type plane = {
  pl_prefix : string;
  pl_lock : Mutex.t;
  mutable pl_idx : out_channel option; (* opened at enable *)
  mutable pl_next_spool : int;
  mutable pl_next_cert : int;
  mutable pl_spools : spool list;
}

let plane : plane option Atomic.t = Atomic.make None

let mk_stream path =
  {
    st_path = path;
    st_buf = Buffer.create 128;
    st_chan = None;
    st_bytes = 0;
    st_scratch = Bytes.create 256;
  }

(* Materialize the buffered tail. The first flush creates (and
   truncates) the file; later flushes append through the kept-open
   channel. No [flush ch]: the channel's own buffering batches the
   write syscalls, and [close_stream] (reached from [disable]) flushes
   before anything reads the file — a per-certificate flush costs a
   syscall per verdict, which dominates sub-20ms verification runs. *)
let flush_stream st =
  if Buffer.length st.st_buf > 0 || st.st_chan <> None then begin
    let ch =
      match st.st_chan with
      | Some ch -> ch
      | None ->
        let ch =
          open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 st.st_path
        in
        st.st_chan <- Some ch;
        ch
    in
    Buffer.output_buffer ch st.st_buf;
    Buffer.clear st.st_buf
  end

(* Decimal rendering without going through [string_of_int] or the
   Buffer per-char path: a clause line is rendered into the stream's
   scratch bytes with unchecked writes (the caller sized it first) and
   handed to the Buffer in one piece. The spool sees one int per
   literal of every asserted and learnt clause, so this path runs at
   clause-generation speed during encoding — it has to be cheap. *)
let rec write_uint b pos n =
  let pos = if n >= 10 then write_uint b pos (n / 10) else pos in
  Bytes.unsafe_set b pos (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  pos + 1

let write_int b pos n =
  if n < 0 then begin
    Bytes.unsafe_set b pos '-';
    write_uint b (pos + 1) (-n)
  end
  else write_uint b pos n

let ensure_scratch st n =
  if Bytes.length st.st_scratch < n then
    st.st_scratch <- Bytes.create (max n (2 * Bytes.length st.st_scratch))

(* Close out one clause line rendered into the scratch up to [pos]:
   terminating 0, byte accounting, spill check. Returns the line
   length. *)
let finish_line st pos =
  let b = st.st_scratch in
  Bytes.unsafe_set b pos '0';
  Bytes.unsafe_set b (pos + 1) '\n';
  let len = pos + 2 in
  Buffer.add_subbytes st.st_buf b 0 len;
  st.st_bytes <- st.st_bytes + len;
  if Buffer.length st.st_buf >= spill_threshold then flush_stream st;
  len

(* worst case per literal: sign + 19 digits + space *)
let lit_width = 21

let start_line st prefix n =
  ensure_scratch st (String.length prefix + (lit_width * n) + 2);
  Bytes.blit_string prefix 0 st.st_scratch 0 (String.length prefix);
  String.length prefix

let append_clause ?(prefix = "") st n get =
  let pos = ref (start_line st prefix n) in
  let b = st.st_scratch in
  for i = 0 to n - 1 do
    pos := write_int b !pos (Lit.to_int (get i));
    Bytes.unsafe_set b !pos ' ';
    incr pos
  done;
  finish_line st !pos

let append_clause_list st lits =
  let pos = ref (start_line st "" (List.length lits)) in
  let b = st.st_scratch in
  List.iter
    (fun l ->
      pos := write_int b !pos (Lit.to_int l);
      Bytes.unsafe_set b !pos ' ';
      incr pos)
    lits;
  finish_line st !pos

(* A certificate references both spool files by path, so they must
   exist on disk even when nothing was ever logged — a root-level
   conflict learns no clauses and leaves the DRAT stream empty. Only
   the file is created here: buffered lines land at spill or at
   [close_stream], and nothing reads a spool before [disable] closes
   it — flushing per certificate costs ~15us of cold-cache channel
   work per verdict, which dominates sub-20ms verification runs. *)
let materialize st =
  if st.st_chan = None then
    st.st_chan <-
      Some (open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 st.st_path)

let close_stream st =
  match st.st_chan with
  | None -> () (* never materialized: drop the buffer, create nothing *)
  | Some ch ->
    Buffer.output_buffer ch st.st_buf;
    Buffer.clear st.st_buf;
    st.st_chan <- None;
    close_out_noerr ch

let meter sp added =
  sp.sp_pending_bytes <- sp.sp_pending_bytes + added;
  sp.sp_pending_clauses <- sp.sp_pending_clauses + 1

(* Push batched deltas to the registry. *)
let sync_metrics sp =
  if sp.sp_pending_bytes > 0 then begin
    Obs.Metrics.add m_bytes sp.sp_pending_bytes;
    sp.sp_pending_bytes <- 0
  end;
  if sp.sp_pending_clauses > 0 then begin
    Obs.Metrics.add m_clauses sp.sp_pending_clauses;
    sp.sp_pending_clauses <- 0
  end;
  if sp.sp_pending_dels > 0 then begin
    Obs.Metrics.add m_deletions sp.sp_pending_dels;
    sp.sp_pending_dels <- 0
  end

let enabled () = Atomic.get plane <> None

let active_prefix () =
  match Atomic.get plane with
  | Some p -> Some p.pl_prefix
  | None -> None

let disable () =
  match Atomic.exchange plane None with
  | None -> ()
  | Some p ->
    Mutex.lock p.pl_lock;
    List.iter
      (fun sp ->
        Mutex.lock sp.sp_lock;
        sync_metrics sp;
        close_stream sp.cnf;
        close_stream sp.drat;
        Mutex.unlock sp.sp_lock)
      p.pl_spools;
    p.pl_spools <- [];
    (match p.pl_idx with
    | Some ch ->
      p.pl_idx <- None;
      close_out_noerr ch
    | None -> ());
    Mutex.unlock p.pl_lock

let enable ~prefix =
  disable ();
  let idx =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 (prefix ^ ".idx")
  in
  Atomic.set plane
    (Some
       {
         pl_prefix = prefix;
         pl_lock = Mutex.create ();
         pl_idx = Some idx;
         pl_next_spool = 0;
         pl_next_cert = 0;
         pl_spools = [];
       })

let create_spool () =
  match Atomic.get plane with
  | None -> None
  | Some p ->
    Mutex.lock p.pl_lock;
    let id = p.pl_next_spool in
    p.pl_next_spool <- id + 1;
    let base = Printf.sprintf "%s.s%d" p.pl_prefix id in
    let sp =
      {
        sp_id = id;
        sp_lock = Mutex.create ();
        cnf = mk_stream (base ^ ".cnf");
        drat = mk_stream (base ^ ".drat");
        sp_cnf_clauses = 0;
        sp_pending_bytes = 0;
        sp_pending_clauses = 0;
        sp_pending_dels = 0;
      }
    in
    p.pl_spools <- sp :: p.pl_spools;
    Mutex.unlock p.pl_lock;
    Some sp

(* A spool belongs to one solver, and only that solver's domain
   appends to it or certifies on it, so the per-clause path takes no
   lock. The one path that reaches a spool from another domain is
   [disable], which closes every spool of the plane from whichever
   domain ends it. [certify] and [disable] take [sp_lock], so a late
   certificate and the close never interleave. Every caller ends the
   plane only once its solvers have stopped (the CLI after the command
   returns and its pools have joined, the daemon after [stop] has
   joined its dispatchers), so the lock is never contended there and
   the appends need none. *)
let log_original sp lits =
  sp.sp_cnf_clauses <- sp.sp_cnf_clauses + 1;
  meter sp (append_clause_list sp.cnf lits)

let log_learnt sp c =
  meter sp (append_clause sp.drat (Array.length c) (Array.get c))

let log_learnt_unit sp l = meter sp (append_clause sp.drat 1 (fun _ -> l))

let log_delete sp c =
  sp.sp_pending_bytes <-
    sp.sp_pending_bytes
    + append_clause ~prefix:"d " sp.drat (Array.length c) (Array.get c);
  sp.sp_pending_dels <- sp.sp_pending_dels + 1

type cert = {
  cert_id : int;
  cert_cnf : string;
  cert_cnf_bytes : int;
  cert_drat : string;
  cert_drat_bytes : int;
  cert_core_size : int;
}

let certify sp ~core ~names ~maxvar ~loop =
  match Atomic.get plane with
  | None -> None
  | Some p ->
    Mutex.lock sp.sp_lock;
    (* The core clause (negated failed assumptions) is itself RUP with
       respect to everything logged so far, so appending it keeps the
       spool a valid proof log for later certificates. The empty clause
       is NOT appended — it would terminate every longer reconstruction
       early — the checker adds it when rebuilding this verdict's pair. *)
    if core <> [] then begin
      let arr = Array.of_list core in
      meter sp (append_clause sp.drat (Array.length arr) (fun i -> Lit.neg arr.(i)))
    end;
    sync_metrics sp;
    materialize sp.cnf;
    materialize sp.drat;
    let c =
      {
        cert_id = 0 (* patched below, under the plane lock *);
        cert_cnf = sp.cnf.st_path;
        cert_cnf_bytes = sp.cnf.st_bytes;
        cert_drat = sp.drat.st_path;
        cert_drat_bytes = sp.drat.st_bytes;
        cert_core_size = List.length core;
      }
    in
    let cnf_clauses = sp.sp_cnf_clauses in
    Mutex.unlock sp.sp_lock;
    Mutex.lock p.pl_lock;
    let id = p.pl_next_cert in
    p.pl_next_cert <- id + 1;
    let c = { c with cert_id = id } in
    (match p.pl_idx with
    | Some ch ->
      let line =
        Obs.Json.to_string
          (Obs.Json.Obj
             [
               ("cert", Obs.Json.Int id);
               ("spool", Obs.Json.Int sp.sp_id);
               ("loop", Obs.Json.String loop);
               ("cnf", Obs.Json.String c.cert_cnf);
               ("cnf_bytes", Obs.Json.Int c.cert_cnf_bytes);
               ("cnf_clauses", Obs.Json.Int cnf_clauses);
               ("maxvar", Obs.Json.Int maxvar);
               ("drat", Obs.Json.String c.cert_drat);
               ("drat_bytes", Obs.Json.Int c.cert_drat_bytes);
               ( "core",
                 Obs.Json.List
                   (List.map (fun l -> Obs.Json.Int (Lit.to_int l)) core) );
               ( "names",
                 Obs.Json.List
                   (List.map (fun n -> Obs.Json.String n) names) );
             ])
      in
      output_string ch line;
      output_char ch '\n'
    | None -> ());
    Mutex.unlock p.pl_lock;
    Obs.Metrics.incr m_certs;
    Obs.Metrics.observe m_core_size c.cert_core_size;
    Some c

let read_index ~prefix =
  let path = prefix ^ ".idx" in
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
        close_in_noerr ic;
        Ok (List.rev acc)
      | "" -> go acc
      | line -> (
        match Obs.Json.parse line with
        | Ok j -> go (j :: acc)
        | Error e ->
          close_in_noerr ic;
          Error (Printf.sprintf "%s: bad index line: %s" path e))
    in
    go []
