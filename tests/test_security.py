"""Keypairs, signature soundness, hybrid encryption, certificates."""

import dataclasses
import datetime
import random
import re

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from mobilehost.errors import DecryptFailure, IoFailure, MalformedSignature
from mobilehost.security import (
    CipherEnvelope,
    KeyStore,
    SignatureBlock,
    decrypt_message,
    encrypt_message,
    generate_keypair,
    issue_certificate,
    load_certificate,
    load_key_pair,
    make_serial,
    parse_certificate_text,
    render_certificate_text,
    sign_message,
    verify_certificate,
    verify_signature,
)

UTC = datetime.timezone.utc


class TestKeypair:
    def test_default_exponent_is_65537(self, keypair):
        assert keypair.exponent == 65537

    def test_modulus_bit_length_matches(self, keypair):
        assert keypair.modulus.bit_length() == 2048

    def test_distinct_moduli(self, keypair, other_keypair):
        assert keypair.modulus != other_keypair.modulus

    def test_small_keys_fail_fast(self):
        with pytest.raises(ValueError):
            generate_keypair(1024)


class TestSignatures:
    def test_round_trip(self, keypair):
        sig = sign_message(b"hello", keypair.privateKey)
        assert verify_signature(b"hello", sig, keypair.publicKey) is True

    def test_signature_length_matches_key_size(self, keypair):
        import base64

        sig = sign_message(b"m", keypair.privateKey)
        assert len(base64.b64decode(sig.value)) == 2048 // 8

    def test_wrong_key_rejects(self, keypair, other_keypair):
        sig = sign_message(b"m", keypair.privateKey)
        assert verify_signature(b"m", sig, other_keypair.publicKey) is False

    def test_undecodable_base64_raises(self, keypair):
        bad = SignatureBlock("RSA-SHA256", "SHA-256", "not base64!!")
        with pytest.raises(MalformedSignature):
            verify_signature(b"m", bad, keypair.publicKey)

    def test_honest_and_tampered_trials(self, keypair):
        rng = random.Random(1)
        accepts = 0
        false_accepts = 0
        for _ in range(100):
            message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            sig = sign_message(message, keypair.privateKey)
            if verify_signature(message, sig, keypair.publicKey):
                accepts += 1
            position = rng.randrange(len(message))
            flipped = bytearray(message)
            flipped[position] ^= 1 + rng.randrange(255)
            if verify_signature(bytes(flipped), sig, keypair.publicKey):
                false_accepts += 1
        assert accepts == 100
        assert false_accepts == 0


class TestEncryption:
    def test_round_trip(self, keypair):
        env = encrypt_message(b"secret", keypair.publicKey)
        assert decrypt_message(env, keypair.privateKey) == b"secret"

    def test_fresh_session_key_per_message(self, keypair):
        a = encrypt_message(b"same plaintext", keypair.publicKey)
        b = encrypt_message(b"same plaintext", keypair.publicKey)
        assert a.ciphertext != b.ciphertext
        assert a.wrappedKey != b.wrappedKey
        assert a.iv != b.iv

    def test_wrong_key_fails_with_fixed_message(self, keypair, other_keypair):
        env = encrypt_message(b"secret", keypair.publicKey)
        with pytest.raises(DecryptFailure) as wrong_key:
            decrypt_message(env, other_keypair.privateKey)
        corrupt = CipherEnvelope(env.wrappedKey, env.iv, env.ciphertext[:-4] + "AAA=")
        with pytest.raises(DecryptFailure) as corrupted:
            decrypt_message(corrupt, keypair.privateKey)
        assert str(wrong_key.value) == str(corrupted.value)

    def test_empty_plaintext_rejected(self, keypair):
        with pytest.raises(ValueError):
            encrypt_message(b"", keypair.publicKey)

    def test_ciphertext_hides_sentinel(self, keypair):
        import base64

        sentinel = bytes(random.Random(2).randrange(256) for _ in range(32))
        env = encrypt_message(sentinel * 4, keypair.publicKey)
        assert sentinel not in base64.b64decode(env.ciphertext)

    def test_many_sizes_round_trip(self, keypair):
        rng = random.Random(3)
        for size in (1, 15, 16, 1000, 65536):
            blob = bytes(rng.randrange(256) for _ in range(size))
            assert decrypt_message(
                encrypt_message(blob, keypair.publicKey), keypair.privateKey
            ) == blob


class TestCertificates:
    NOT_BEFORE = datetime.datetime(2008, 8, 13, 17, 37, 58, tzinfo=UTC)

    def make(self, keypair, **kwargs):
        defaults = dict(
            subjectDN="MobileHost/",
            not_before=self.NOT_BEFORE,
            serial=b"525809",
        )
        defaults.update(kwargs)
        return issue_certificate(keypair, **defaults)

    def test_self_signed_dns(self, keypair):
        cert = self.make(keypair)
        assert cert.subjectDN == "MobileHost/"
        assert cert.issuerDN == "MobileHost/"

    def test_default_validity_is_ten_days(self, keypair):
        cert = self.make(keypair)
        assert cert.notAfter - cert.notBefore == datetime.timedelta(days=10)
        assert cert.notAfter == datetime.datetime(2008, 8, 23, 17, 37, 58, tzinfo=UTC)

    def test_self_signature_verifies(self, keypair):
        assert verify_certificate(self.make(keypair)) is True

    def test_forged_field_breaks_self_signature(self, keypair):
        cert = dataclasses.replace(self.make(keypair), subjectDN="Impostor/")
        assert verify_certificate(cert) is False

    def test_serial_line_renders_octets(self, keypair):
        text = render_certificate_text(self.make(keypair, serial=bytes([0x35, 0x32, 0x35, 0x38, 0x30, 0x39])))
        assert "Serial number: 35:32:35:38:30:39" in text

    def test_exponent_line_has_no_space(self, keypair):
        assert "public exponent:65537" in render_certificate_text(self.make(keypair))

    def test_date_lines_match_listing_style(self, keypair):
        text = render_certificate_text(self.make(keypair))
        assert "Start Date: Wed Aug 13 17:37:58 UTC 2008" in text
        assert "Final Date: Sat Aug 23 17:37:58 UTC 2008" in text

    def test_golden_line_template(self, keypair):
        lines = render_certificate_text(self.make(keypair)).splitlines()
        patterns = [
            r"^----- Begin Certificate -----$",
            r"^Type: X\.509v1$",
            r"^Serial number: ([0-9a-f]{2})(:[0-9a-f]{2})*$",
            r"^SubjectDN: MobileHost/$",
            r"^IssuerDN: MobileHost/$",
            r"^Start Date: [A-Z][a-z]{2} [A-Z][a-z]{2} \d{2} \d{2}:\d{2}:\d{2} UTC \d{4}$",
            r"^Final Date: [A-Z][a-z]{2} [A-Z][a-z]{2} \d{2} \d{2}:\d{2}:\d{2} UTC \d{4}$",
            r"^Public Key: RSA$",
            r"^modulus:$",
        ]
        for pattern, line in zip(patterns, lines):
            assert re.match(pattern, line), (pattern, line)
        rest = lines[len(patterns):]
        i = 0
        while re.match(r"^\d+$", rest[i]):
            assert len(rest[i]) <= 43
            i += 1
        assert i > 0, "expected modulus digit lines"
        assert rest[i] == "public exponent:65537"
        assert rest[i + 1] == "Signature Algorithm: RSA"
        assert rest[i + 2] == "Signature:"
        j = i + 3
        while re.match(r"^\d+$", rest[j]):
            assert len(rest[j]) <= 43
            j += 1
        assert j > i + 3, "expected signature digit lines"
        assert rest[j] == "----- End Certificate -----"
        assert j == len(rest) - 1

    def test_render_parses_back_to_equal_certificate(self, keypair):
        cert = self.make(keypair)
        again = parse_certificate_text(render_certificate_text(cert))
        assert again == cert
        assert verify_certificate(again) is True

    def test_invalid_key_numbers_fail_verification(self, keypair):
        cert = dataclasses.replace(self.make(keypair), exponent=4)
        assert verify_certificate(cert) is False

    def test_signature_longer_than_modulus_is_unreadable(self, keypair):
        text = render_certificate_text(self.make(keypair))
        text = text.replace("Signature:\n", "Signature:\n" + "9" * 43 + "\n")
        with pytest.raises(ValueError):
            parse_certificate_text(text)

    def test_mangled_text_raises_only_value_error(self, keypair):
        text = render_certificate_text(self.make(keypair))
        rng = random.Random(7)
        for _ in range(300):
            chars = list(text)
            for _ in range(rng.randrange(1, 6)):
                chars[rng.randrange(len(chars))] = rng.choice("0123456789:\n -xZ")
            try:
                parse_certificate_text("".join(chars))
            except ValueError:
                pass

    def test_serial_is_decimal_token_bytes(self):
        serial = make_serial(1218649078123)
        assert serial.isdigit()
        assert len(serial) <= 6

    def test_validity_days_must_be_positive(self, keypair):
        with pytest.raises(ValueError):
            issue_certificate(keypair, "X/", validityDays=0)


class TestKeyStore:
    def test_save_load_round_trip(self, tmp_path, keypair):
        cert = issue_certificate(keypair, "Svc/", serial=b"1")
        store = KeyStore(tmp_path / "keys")
        store.save("Svc", keypair, cert)
        kp2, cert2 = store.load("Svc")
        assert kp2.modulus == keypair.modulus
        assert cert2 == cert

    def test_private_key_file_is_restricted(self, tmp_path, keypair):
        import stat

        cert = issue_certificate(keypair, "Svc/")
        store = KeyStore(tmp_path / "keys")
        store.save("Svc", keypair, cert)
        mode = stat.S_IMODE((tmp_path / "keys" / "Svc.key").stat().st_mode)
        assert mode == 0o600

    def test_has(self, tmp_path, keypair):
        store = KeyStore(tmp_path / "keys")
        assert not store.has("Svc")
        store.save("Svc", keypair, issue_certificate(keypair, "Svc/"))
        assert store.has("Svc")

    @pytest.mark.parametrize("field", ["modulus", "exponent"])
    def test_certificate_for_another_key_is_refused(self, tmp_path, keypair,
                                                    other_keypair, field):
        # save() writes the key first: a crash before the certificate
        # follows leaves the certificate of the key before it
        cert = issue_certificate(other_keypair if field == "modulus" else keypair, "Svc/")
        if field == "exponent":
            cert = dataclasses.replace(cert, exponent=3)
        store = KeyStore(tmp_path / "keys")
        store.save("Svc", keypair, cert)
        with pytest.raises(IoFailure) as exc:
            store.load("Svc")
        assert str(exc.value) == (f"cannot read key material for Svc: "
                                  f"{tmp_path / 'keys' / 'Svc.cert'}: "
                                  f"certificate is for another key")

    def test_issue_saves_a_new_pair(self, tmp_path):
        store = KeyStore(tmp_path / "keys")
        for bits, days in ((1024, 10), (2048, 0)):
            with pytest.raises(ValueError):
                store.issue("Svc", bits, "Me/", days)
        assert not store.has("Svc")
        kp, cert = store.issue("Svc", 2048, "Me/", 3)
        assert (cert.subjectDN, cert.modulus) == ("Me/", kp.modulus)
        assert cert.notAfter - cert.notBefore == datetime.timedelta(days=3)
        assert verify_certificate(cert)
        assert store.load("Svc")[1] == cert

    def test_service_keys_issues_a_missing_pair_once(self, tmp_path):
        store = KeyStore(tmp_path / "keys")
        with pytest.raises(IoFailure, match="Svc.key"):
            store.service_keys("Svc")
        kp, cert = store.service_keys("Svc", issue=True)
        assert (cert.subjectDN, cert.modulus) == ("Svc/", kp.modulus)
        assert verify_certificate(cert)
        again = store.service_keys("Svc", issue=True)
        assert (again[0].modulus, again[1]) == (kp.modulus, cert)
        assert store.service_keys("Svc")[1] == cert

    def test_service_keys_renews_a_certificate_near_its_end(self, tmp_path, keypair):
        now = datetime.datetime.now(UTC).replace(microsecond=0)
        old = issue_certificate(keypair, "Svc/", serial=b"1",
                                not_before=now - datetime.timedelta(days=6))
        store = KeyStore(tmp_path / "keys")
        store.save("Svc", keypair, old)
        kp, cert = store.service_keys("Svc")
        assert kp.modulus == keypair.modulus
        assert (cert.modulus, cert.subjectDN) == (old.modulus, old.subjectDN)
        assert cert.notBefore >= now and cert.serial != old.serial
        assert store.load("Svc")[1] == cert


class TestLoadCertificate:
    def test_reads_a_rendered_certificate(self, tmp_path, keypair):
        cert = issue_certificate(keypair, "Svc/", serial=b"1")
        path = tmp_path / "c.cert"
        path.write_text(render_certificate_text(cert))
        assert load_certificate(path) == cert
        assert load_certificate(str(path), keypair) == cert

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text[:1], "missing certificate banner"),
        (lambda text: text.replace("SubjectDN: Svc/", "SubjectDN: Other/", 1),
         "certificate self-signature does not verify"),
    ], ids=["one byte", "subject edited"])
    def test_refusal_starts_with_the_path(self, tmp_path, keypair, edit, message):
        path = tmp_path / "c.cert"
        path.write_text(edit(render_certificate_text(issue_certificate(keypair, "Svc/"))))
        with pytest.raises(ValueError) as exc:
            load_certificate(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_certificate_for_another_key_is_refused(self, tmp_path, keypair,
                                                    other_keypair):
        path = tmp_path / "c.cert"
        path.write_text(render_certificate_text(issue_certificate(keypair, "Svc/")))
        with pytest.raises(ValueError) as exc:
            load_certificate(path, other_keypair)
        assert str(exc.value) == f"{path}: certificate is for another key"


class TestLoadKeyPair:
    def test_reads_a_saved_pair(self, tmp_path, keypair):
        store = KeyStore(tmp_path)
        cert = issue_certificate(keypair, "Svc/", serial=b"1")
        store.save("Svc", keypair, cert)
        kp, loaded = load_key_pair(str(store.key_path("Svc")), store.cert_path("Svc"))
        assert (kp.modulus, loaded) == (keypair.modulus, cert)
        # invoke --sign sends this rendering: the bytes of the file keygen wrote
        assert render_certificate_text(loaded) == store.cert_path("Svc").read_text()

    @pytest.mark.parametrize("kind, message", [
        ("encrypted", "private key is encrypted"),
        ("ed25519", "not an RSA private key"),
        ("text", ""),  # the library's wording differs between versions
    ])
    def test_unusable_private_key_names_the_file(self, tmp_path, keypair, kind, message):
        pem = {
            "encrypted": lambda: keypair.privateKey.private_bytes(
                serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
                serialization.BestAvailableEncryption(b"pw")),
            "ed25519": lambda: ed25519.Ed25519PrivateKey.generate().private_bytes(
                serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption()),
            "text": lambda: b"not a key\n",
        }[kind]()
        key, cert = tmp_path / "k.pem", tmp_path / "c.cert"
        key.write_bytes(pem)
        cert.write_text(render_certificate_text(issue_certificate(keypair, "X/")))
        with pytest.raises(ValueError) as exc:
            load_key_pair(key, cert)
        assert str(exc.value).startswith(f"{key}: ")
        assert message in str(exc.value)

    @pytest.mark.parametrize("text, message", [
        (b"not a certificate\n", "missing certificate banner"),
        (b"\xff\xfe", "can't decode byte 0xff"),
    ], ids=["not a certificate", "not UTF-8"])
    def test_unreadable_certificate_names_the_file(self, tmp_path, keypair, text, message):
        store = KeyStore(tmp_path)
        store.save("Svc", keypair, issue_certificate(keypair, "Svc/"))
        store.cert_path("Svc").write_bytes(text)
        with pytest.raises(ValueError) as exc:
            load_key_pair(store.key_path("Svc"), store.cert_path("Svc"))
        assert str(exc.value).startswith(f"{store.cert_path('Svc')}: ")
        assert message in str(exc.value)

    def test_missing_file_is_an_os_error(self, tmp_path, keypair):
        store = KeyStore(tmp_path)
        store.save("Svc", keypair, issue_certificate(keypair, "Svc/"))
        with pytest.raises(FileNotFoundError):
            load_key_pair(store.key_path("Svc"), tmp_path / "none.cert")
