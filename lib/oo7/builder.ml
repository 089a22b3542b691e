open Lbc_pheap

open Lbc_util

let build (c : Schema.config) =
  if c.Schema.connections_per_atomic > Schema.max_connections then
    invalid_arg "Builder.build: too many connections per atomic part";
  let image = Bytes.make (Schema.region_size c) '\000' in
  let heap = Heap.of_bytes image in
  let rng = Rng.create c.Schema.seed in
  let header = Heap.alloc heap (Layout.size Schema.header) in
  let set_header off v = Heap.set_int heap (header + off) v in
  (* The clusters are built through the database handle, and attaching
     checks the magic: write it first. *)
  Heap.set_u64 heap (header + Schema.Header.db_magic) Schema.db_magic;
  let db = Database.attach_bytes c image in
  let f = Database.fields db in
  (* Design library: one cluster per composite part. *)
  let composites =
    Array.init c.Schema.num_composites (fun ci ->
        Clusters.build_one db ~rng ~id:ci)
  in
  (* Assembly hierarchy: a complete tree whose leaves (base assemblies)
     reference random composite parts.  The paper's Table 3 shows all 500
     composites reached (4000 unique bytes for T2-A), so the random
     assignment guarantees coverage: the first [num_composites] reference
     slots are a shuffled enumeration of the library, the rest are drawn
     uniformly, and the whole sequence is shuffled again. *)
  let refs =
    let slots = Schema.composite_visits c in
    let a =
      Array.init slots (fun i ->
          if i < c.Schema.num_composites then composites.(i)
          else Rng.pick rng composites)
    in
    Rng.shuffle rng a;
    a
  in
  let next_ref = ref 0 in
  let next_assembly_id = ref 0 in
  let assembly_size = Layout.size (Schema.assembly c) in
  let rec build_assembly level =
    let a = Heap.alloc heap assembly_size in
    let seta off v = Heap.set_int heap (a + off) v in
    seta f.Schema.asm_id !next_assembly_id;
    incr next_assembly_id;
    if level = c.Schema.assembly_levels then begin
      seta f.Schema.asm_kind 1;
      for i = 0 to c.Schema.composites_per_base - 1 do
        seta f.Schema.child_slot.(i) refs.(!next_ref);
        incr next_ref
      done
    end
    else begin
      seta f.Schema.asm_kind 0;
      for i = 0 to c.Schema.assembly_fanout - 1 do
        seta f.Schema.child_slot.(i) (build_assembly (level + 1))
      done
    end;
    a
  in
  let root = build_assembly 1 in
  (* Composite directory, with spare capacity for structural inserts. *)
  let capacity = 2 * c.Schema.num_composites in
  let dir = Heap.alloc heap (8 * capacity) in
  Array.iteri (fun i comp -> Heap.set_int heap (dir + (8 * i)) comp) composites;
  set_header Schema.Header.root_assembly root;
  set_header Schema.Header.n_composites c.Schema.num_composites;
  set_header Schema.Header.composite_dir dir;
  set_header Schema.Header.dir_capacity capacity;
  (* Part index over every atomic part, ordered by build date (read
     indirectly through the part). *)
  Array.iter (fun comp -> Clusters.index_parts db ~comp) composites;
  image
