(* Data-region layout, shared by the linker (which lays out the real
   binary) and the reference interpreter (which must place globals at the
   same offsets for differential testing).

   D-region map, offsets from D.begin:
     0                trampoline-pointer slot (written by _start)
     8                argc (written by the loader)
     16 ..           argv pointer array + packed argument strings
     4096 ..          program globals, then the string-literal pool
     heap_start ..    heap zone (brk grows up, mmap carves from the top)
     D.end-stack ..   stack, growing down from D.end *)

let header_size = Occlum_oelf.Oelf.guard_size (* 4 KiB: slot + argv area *)
let tramp_slot = 0
let argc_off = 8
let argv_off = 16

type t = {
  global_offsets : (string * int) list;
  literal_offsets : (string * int) list;
  data_init_size : int; (* size of the initialized image (incl. pool) *)
  heap_start : int;
  heap_size : int;
  stack_size : int;
  data_region_size : int;
  secret_ranges : (int * int) list;
      (* D-relative (offset, length) of globals declared secret; carried
         into the OELF for the constant-time taint analysis *)
}

let align16 n = Occlum_util.Bytes_util.round_up n 16

let of_program ?(heap_size = 256 * 1024) ?(stack_size = 64 * 1024)
    (p : Ast.program) =
  let off = ref header_size in
  let global_offsets =
    List.map
      (fun (name, size) ->
        let o = !off in
        off := align16 (!off + size);
        (name, o))
      p.globals
  in
  let literal_offsets =
    List.map
      (fun s ->
        let o = !off in
        off := align16 (!off + String.length s + 1);
        (s, o))
      (Ast.literals p)
  in
  let data_init_size = !off in
  let heap_start = Occlum_util.Bytes_util.round_up data_init_size 4096 in
  let data_region_size =
    Occlum_util.Bytes_util.round_up (heap_start + heap_size + stack_size) 4096
  in
  let secret_ranges =
    List.filter_map
      (fun (name, size) ->
        if List.mem name p.secrets then
          Some (List.assoc name global_offsets, size)
        else None)
      p.globals
  in
  {
    global_offsets;
    literal_offsets;
    data_init_size;
    heap_start;
    heap_size;
    stack_size;
    data_region_size;
    secret_ranges;
  }

let global_offset t name =
  match List.assoc_opt name t.global_offsets with
  | Some o -> o
  | None -> invalid_arg ("Layout.global_offset: unknown global " ^ name)

let literal_offset t s =
  match List.assoc_opt s t.literal_offsets with
  | Some o -> o
  | None -> invalid_arg "Layout.literal_offset: literal not interned"

(* The initialized data image: header page (zeroed; loader fills argv)
   plus globals (zero) plus the literal pool. *)
let initial_data_image t =
  let img = Bytes.make t.data_init_size '\x00' in
  List.iter
    (fun (s, off) -> Bytes.blit_string s 0 img off (String.length s))
    t.literal_offsets;
  img

let args_fit args =
  List.fold_left (fun n a -> n + 8 + String.length a + 1) argv_off args
  <= header_size

(* Write argc/argv into a data region. [data_base] is the absolute
   address of D.begin so argv pointers are absolute; the reference
   interpreter passes 0. Raises if the arguments overflow the area. *)
let write_args buf ~data_base args =
  if not (args_fit args) then
    invalid_arg "Layout.write_args: argument area overflow";
  let argc = List.length args in
  Bytes.set_int64_le buf argc_off (Int64.of_int argc);
  let ptr_end = argv_off + (8 * argc) in
  let str_off = ref ptr_end in
  List.iteri
    (fun idx arg ->
      let len = String.length arg in
      Bytes.set_int64_le buf (argv_off + (8 * idx))
        (Int64.of_int (data_base + !str_off));
      Bytes.blit_string arg 0 buf !str_off len;
      Bytes.set buf (!str_off + len) '\x00';
      str_off := !str_off + len + 1)
    args
