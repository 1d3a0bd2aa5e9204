"""NSABC/w: a width-scalable, tweakable block cipher over quasi-group word
multiplication, with a bit-exact reference path and an accelerated affine
path (one evaluator of the derived round graph, for one block or a numpy batch)."""

from ._kernels import affine_gbox
from .cipher import (
    Block,
    block_to_bytes,
    block_to_int,
    bytes_to_block,
    crypt,
    decrypt,
    encrypt,
    gbox,
    int_to_block,
    reverse_words,
    schedule_inverse,
    swap_all_halves,
)
from .container import ContainerFormatError, ContainerHeader, decrypt_bytes, encrypt_bytes
from .fastpath import (
    AffineSchedule,
    affine_expand,
    crypt_fast,
    crypt_fast_batch,
    icrypt_fast,
    icrypt_fast_batch,
    invert_affine,
)
from .schedules import key_expand, tweak_expand, unit_expand
from .tweakstream import decrypt_blocks, encrypt_blocks, tweak_at
from .words import (
    CIPHER_WIDTHS,
    boxdot,
    boxdot_e,
    inv_e,
    mod_inverse,
    odot,
    odot_e,
    odot_inverse,
    swap_halves,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSchedule",
    "Block",
    "CIPHER_WIDTHS",
    "ContainerFormatError",
    "ContainerHeader",
    "affine_expand",
    "affine_gbox",
    "block_to_bytes",
    "block_to_int",
    "boxdot",
    "boxdot_e",
    "bytes_to_block",
    "crypt",
    "crypt_fast",
    "crypt_fast_batch",
    "decrypt",
    "decrypt_blocks",
    "decrypt_bytes",
    "encrypt",
    "encrypt_blocks",
    "encrypt_bytes",
    "gbox",
    "icrypt_fast",
    "icrypt_fast_batch",
    "int_to_block",
    "inv_e",
    "invert_affine",
    "key_expand",
    "mod_inverse",
    "odot",
    "odot_e",
    "odot_inverse",
    "reverse_words",
    "schedule_inverse",
    "swap_all_halves",
    "swap_halves",
    "tweak_at",
    "tweak_expand",
    "unit_expand",
]
