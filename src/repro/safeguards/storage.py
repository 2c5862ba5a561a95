"""Secure storage (the §5.2 "SS" safeguard) — stdlib-only container.

Implements authenticated encryption from the standard library only
(no external crypto dependency is available offline):

* key derivation: PBKDF2-HMAC-SHA256 with a random salt,
* confidentiality: a keyed-BLAKE2b keystream in counter mode
  (BLAKE2b(key, nonce || counter) blocks XORed with the plaintext),
* integrity/authenticity: encrypt-then-MAC with HMAC-SHA256 over
  header + ciphertext, verified in constant time.

This is a faithful, reviewable construction for research-data
containers in a simulation setting; a production deployment would use
a vetted AEAD (and the docstring says so on purpose).

Hot path notes (the safeguard pipeline seals whole dumps chunk by
chunk): keystream blocks come from BLAKE2b's keyed mode (64-byte
blocks, one compression each — several times faster than the
HMAC-SHA256 construction it replaced, hence the ``REPROSS2`` format
magic), the XOR runs over whole integers instead of a per-byte
Python loop, and the expensive PBKDF2 derivation is memoised per
salt so repeated seals under one passphrase pay it once.

For deterministic, reproducible sealing (the pipeline's requirement
that parallel output be byte-identical to serial), callers may pass
an explicit ``salt``/``nonce`` to :meth:`SecureContainer.seal`; the
supplied nonce must then be unique per (key, plaintext) context —
the pipeline derives both from the chunk content, SIV-style, so
equal inputs produce equal containers and unequal inputs produce
unrelated keystreams.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import secrets
import struct

from ..errors import IntegrityError, SafeguardError
from ..observability import audit_event

__all__ = ["SecureContainer", "StoragePolicy", "derive_key"]

_MAGIC = b"REPROSS2"
_BLOCK = 64  # BLAKE2b digest (keystream block) size
_TAG_LEN = 32  # HMAC-SHA256 tag size
_KEY_LEN = 32
_SALT_LEN = 16
_NONCE_LEN = 16
_PBKDF2_ITERATIONS = 200_000


def derive_key(
    passphrase: str, salt: bytes, iterations: int = _PBKDF2_ITERATIONS
) -> bytes:
    """Derive a 32-byte key from a passphrase with PBKDF2-HMAC-SHA256."""
    if not passphrase:
        raise SafeguardError("passphrase must be non-empty")
    if len(salt) < 8:
        raise SafeguardError("salt must be at least 8 bytes")
    return hashlib.pbkdf2_hmac(
        "sha256", passphrase.encode("utf-8"), salt, iterations, _KEY_LEN
    )


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Counter-mode keystream: BLAKE2b(key, nonce || counter) blocks."""
    blake2b = hashlib.blake2b
    pack = struct.pack
    blocks = [
        blake2b(nonce + pack(">Q", counter), key=key).digest()
        for counter in range((length + _BLOCK - 1) // _BLOCK)
    ]
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """Whole-integer XOR (C-speed; the per-byte loop was the hot spot)."""
    # ``int.from_bytes(b"")`` is 0 and ``(0).to_bytes(0)`` is empty, so
    # zero-length plaintexts need no branch.
    length = len(data)
    return (
        int.from_bytes(data, "little")
        ^ int.from_bytes(stream[:length], "little")
    ).to_bytes(length, "little")


class SecureContainer:
    """Encrypt-then-MAC container for sensitive research data.

    Sealed format::

        MAGIC(8) || salt(16) || nonce(16) || ciphertext || tag(32)

    Separate encryption and MAC keys are derived from the master key
    by domain separation.
    """

    def __init__(self, passphrase: str) -> None:
        self._passphrase = passphrase
        if not passphrase:
            raise SafeguardError("passphrase must be non-empty")
        self._subkey_cache: dict[bytes, tuple[bytes, bytes]] = {}

    def _subkeys(self, salt: bytes) -> tuple[bytes, bytes]:
        cached = self._subkey_cache.get(salt)
        if cached is not None:
            return cached
        master = derive_key(self._passphrase, salt)
        enc_key = hmac.new(master, b"encrypt", hashlib.sha256).digest()
        mac_key = hmac.new(master, b"mac", hashlib.sha256).digest()
        # The PBKDF2 work factor is the point of derive_key; memoise
        # per salt so chunked sealing pays it once, and keep the memo
        # tiny (it only ever holds a handful of salts).
        if len(self._subkey_cache) < 64:
            self._subkey_cache[salt] = (enc_key, mac_key)
        return enc_key, mac_key

    def seal(
        self,
        plaintext: bytes,
        *,
        salt: bytes | None = None,
        nonce: bytes | None = None,
    ) -> bytes:
        """Encrypt and authenticate *plaintext*.

        Without arguments the salt and nonce are drawn fresh from the
        OS RNG. Passing them explicitly makes sealing deterministic —
        required for reproducible pipelines — in which case the caller
        is responsible for nonce uniqueness per plaintext context
        (derive it from the content, SIV-style).
        """
        if not isinstance(plaintext, (bytes, bytearray)):
            raise SafeguardError("plaintext must be bytes")
        explicit_params = salt is not None and nonce is not None
        if salt is None:
            salt = secrets.token_bytes(_SALT_LEN)
        elif len(salt) != _SALT_LEN:
            raise SafeguardError(f"salt must be {_SALT_LEN} bytes")
        if nonce is None:
            nonce = secrets.token_bytes(_NONCE_LEN)
        elif len(nonce) != _NONCE_LEN:
            raise SafeguardError(f"nonce must be {_NONCE_LEN} bytes")
        enc_key, mac_key = self._subkeys(salt)
        stream = _keystream(enc_key, nonce, len(plaintext))
        ciphertext = _xor(bytes(plaintext), stream)
        header = _MAGIC + salt + nonce
        tag = hmac.new(
            mac_key, header + ciphertext, hashlib.sha256
        ).digest()
        sealed = header + ciphertext + tag
        audit_event(
            "storage",
            "seal",
            plaintext_bytes=len(plaintext),
            sealed_bytes=len(sealed),
            deterministic=explicit_params,
        )
        return sealed

    def open(self, sealed: bytes) -> bytes:
        """Verify and decrypt a sealed container.

        Raises :class:`~repro.errors.IntegrityError` on any tampering,
        truncation or wrong passphrase.
        """
        minimum = len(_MAGIC) + _SALT_LEN + _NONCE_LEN + _TAG_LEN
        if len(sealed) < minimum:
            audit_event(
                "storage",
                "open-failed",
                sealed_bytes=len(sealed),
                reason="container truncated",
            )
            raise IntegrityError("container truncated")
        if sealed[: len(_MAGIC)] != _MAGIC:
            audit_event(
                "storage",
                "open-failed",
                sealed_bytes=len(sealed),
                reason="bad magic",
            )
            raise IntegrityError("not a repro secure container")
        offset = len(_MAGIC)
        salt = sealed[offset : offset + _SALT_LEN]
        offset += _SALT_LEN
        nonce = sealed[offset : offset + _NONCE_LEN]
        offset += _NONCE_LEN
        ciphertext = sealed[offset:-_TAG_LEN]
        tag = sealed[-_TAG_LEN:]
        enc_key, mac_key = self._subkeys(salt)
        header = sealed[: offset]
        expected = hmac.new(
            mac_key, header + ciphertext, hashlib.sha256
        ).digest()
        if not hmac.compare_digest(tag, expected):
            audit_event(
                "storage",
                "open-failed",
                sealed_bytes=len(sealed),
                reason="authentication failure",
            )
            raise IntegrityError(
                "authentication failed (tampered data or wrong "
                "passphrase)"
            )
        stream = _keystream(enc_key, nonce, len(ciphertext))
        plaintext = _xor(ciphertext, stream)
        audit_event(
            "storage",
            "open",
            sealed_bytes=len(sealed),
            plaintext_bytes=len(plaintext),
        )
        return plaintext


@dataclasses.dataclass(frozen=True)
class StoragePolicy:
    """Declarative storage policy for a dataset of illicit origin.

    Conformance checking is what the checklist engine and report
    generators consume; the actual mechanics live in
    :class:`SecureContainer` and :mod:`repro.safeguards.access`.
    """

    encrypted_at_rest: bool = True
    access_controlled: bool = True
    audit_logged: bool = True
    offline_backups_encrypted: bool = True
    raw_data_never_public: bool = True

    def violations(self) -> tuple[str, ...]:
        """Descriptions of every policy requirement not met."""
        problems: list[str] = []
        if not self.encrypted_at_rest:
            problems.append("data is not encrypted at rest")
        if not self.access_controlled:
            problems.append("no access control restricts who can read")
        if not self.audit_logged:
            problems.append("access is not audit-logged")
        if not self.offline_backups_encrypted:
            problems.append("backups are not encrypted")
        if not self.raw_data_never_public:
            problems.append(
                "raw data could become public (the paper: the raw "
                "dataset should not be shared publicly)"
            )
        return tuple(problems)

    @property
    def conformant(self) -> bool:
        return not self.violations()
