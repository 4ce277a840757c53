(** Data-region layout, shared by the linker and the reference
    interpreter (which must agree on global offsets for differential
    testing).

    D-region map (offsets from D.begin): trampoline-pointer slot at 0,
    argc/argv area to 4 KiB, then globals and the string-literal pool,
    the heap zone, and the stack at the top. *)

val header_size : int
val tramp_slot : int
val argc_off : int
val argv_off : int

type t = {
  global_offsets : (string * int) list;
  literal_offsets : (string * int) list;
  data_init_size : int;  (** size of the initialized image *)
  heap_start : int;
  heap_size : int;
  stack_size : int;
  data_region_size : int;
  secret_ranges : (int * int) list;
      (** D-relative (offset, length) of globals declared secret *)
}

val of_program : ?heap_size:int -> ?stack_size:int -> Ast.program -> t

val global_offset : t -> string -> int
val literal_offset : t -> string -> int

val initial_data_image : t -> Bytes.t
(** Header page (zeroed) + globals (zeroed) + interned literals. *)

val args_fit : string list -> bool
(** Whether argc/argv fit the argument area: the pointer array plus the
    NUL-terminated strings end within {!header_size}. *)

val write_args : Bytes.t -> data_base:int -> string list -> unit
(** Write argc and absolute argv pointers + packed strings into a data
    region whose D.begin is [data_base] (0 for the interpreter).
    @raise Invalid_argument if the arguments overflow the area. *)
