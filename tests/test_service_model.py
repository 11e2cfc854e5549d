"""Call validation against declared signatures, result coercion, and
descriptor fingerprints."""

import dataclasses

import pytest
from hypothesis import given, settings

from mobilehost.canonical import XML_NS, XMLNS_NS
from mobilehost.errors import (
    ArityMismatch,
    InvalidResultLexical,
    NameMismatch,
    ReturnTypeMismatch,
    TypeMismatch,
    UnknownMethod,
)
from mobilehost.notes import notes_descriptor
from mobilehost.service import (
    MethodSignature,
    ParameterSpec,
    ServiceDescriptor,
    coerce_result,
    descriptor_fingerprint,
    descriptor_from_dict,
    descriptor_to_dict,
    validate_call,
)
from mobilehost.soap import QName, SoapCall, TypedValue, XsdType, parse_envelope

from strategies import service_descriptors


def call_for(sig: MethodSignature, namespace: str = "urn:x") -> SoapCall:
    samples = {
        XsdType.STRING: "s",
        XsdType.INT: 7,
        XsdType.DOUBLE: 1.5,
        XsdType.BOOLEAN: True,
    }
    return SoapCall(
        operation=QName(sig.name, namespace),
        params=tuple(
            (p.name, TypedValue.of(p.xsdType, samples[p.xsdType])) for p in sig.params
        ),
    )


class TestValidateCall:
    def test_notes_request_matches_signature(self, fig13_bytes):
        env = parse_envelope(fig13_bytes)
        sig = validate_call(notes_descriptor(), env.body)
        assert sig.name == "obterNotas"
        assert [p.xsdType for p in sig.params] == [XsdType.STRING, XsdType.STRING]
        assert sig.returnType is XsdType.STRING

    def test_unknown_method(self):
        call = SoapCall(QName("nope", "urn:x"), params=())
        with pytest.raises(UnknownMethod):
            validate_call(notes_descriptor(), call)

    def test_arity_low(self):
        call = SoapCall(
            QName("obterNotas", "urn:x"),
            params=(("codAluno", TypedValue.of(XsdType.STRING, "A001")),),
        )
        with pytest.raises(ArityMismatch) as exc:
            validate_call(notes_descriptor(), call)
        assert (exc.value.expected, exc.value.got) == (2, 1)

    def test_arity_high(self):
        base = call_for(notes_descriptor().methods[0])
        call = dataclasses.replace(
            base, params=base.params + (("extra", TypedValue.of(XsdType.STRING, "x")),)
        )
        with pytest.raises(ArityMismatch) as exc:
            validate_call(notes_descriptor(), call)
        assert (exc.value.expected, exc.value.got) == (2, 3)

    def test_type_mismatch(self):
        call = SoapCall(
            QName("obterNotas", "urn:x"),
            params=(
                ("codAluno", TypedValue.of(XsdType.INT, 1)),
                ("codDisciplina", TypedValue.of(XsdType.STRING, "D002")),
            ),
        )
        with pytest.raises(TypeMismatch) as exc:
            validate_call(notes_descriptor(), call)
        assert exc.value.param_name == "codAluno"
        assert (exc.value.expected, exc.value.got) == ("string", "int")

    def test_name_mismatch(self):
        call = SoapCall(
            QName("obterNotas", "urn:x"),
            params=(
                ("studentCode", TypedValue.of(XsdType.STRING, "A001")),
                ("codDisciplina", TypedValue.of(XsdType.STRING, "D002")),
            ),
        )
        with pytest.raises(NameMismatch) as exc:
            validate_call(notes_descriptor(), call)
        assert exc.value.position == 0

    @settings(max_examples=100, deadline=None)
    @given(service_descriptors())
    def test_conforming_calls_always_accepted(self, desc):
        for sig in desc.methods:
            assert validate_call(desc, call_for(sig)) is sig

    @settings(max_examples=60, deadline=None)
    @given(service_descriptors())
    def test_every_single_field_mutation_rejected(self, desc):
        sig = desc.methods[0]
        good = call_for(sig)

        renamed = dataclasses.replace(
            good, operation=QName(sig.name + "X", good.operation.namespaceUri)
        )
        with pytest.raises(UnknownMethod):
            validate_call(desc, renamed)

        shorter = dataclasses.replace(good, params=good.params[:-1] if good.params else ())
        if good.params:
            with pytest.raises(ArityMismatch):
                validate_call(desc, shorter)

        longer = dataclasses.replace(
            good, params=good.params + (("zzextra", TypedValue.of(XsdType.INT, 1)),)
        )
        with pytest.raises(ArityMismatch):
            validate_call(desc, longer)

        for i, (name, value) in enumerate(good.params):
            bad_name = list(good.params)
            bad_name[i] = (name + "X", value)
            with pytest.raises(NameMismatch):
                validate_call(desc, dataclasses.replace(good, params=tuple(bad_name)))

            other_type = (
                XsdType.INT if value.xsdType is not XsdType.INT else XsdType.STRING
            )
            bad_type = list(good.params)
            bad_type[i] = (name, TypedValue.of(other_type, 3 if other_type is XsdType.INT else "x"))
            with pytest.raises(TypeMismatch):
                validate_call(desc, dataclasses.replace(good, params=tuple(bad_type)))


class TestCoerceResult:
    SIG_STR = MethodSignature("m", (), XsdType.STRING)
    SIG_INT = MethodSignature("m", (), XsdType.INT)
    SIG_BOOL = MethodSignature("m", (), XsdType.BOOLEAN)

    def test_matching_string_unchanged(self):
        tv = TypedValue.of(XsdType.STRING, "x")
        assert coerce_result(self.SIG_STR, tv) is tv

    def test_no_silent_coercion(self):
        with pytest.raises(ReturnTypeMismatch):
            coerce_result(self.SIG_INT, TypedValue.of(XsdType.STRING, "12"))

    def test_matching_boolean(self):
        tv = TypedValue.of(XsdType.BOOLEAN, True)
        assert coerce_result(self.SIG_BOOL, tv) is tv

    @pytest.mark.parametrize("xsd_type, lexical", [
        (XsdType.INT, "abc"), (XsdType.INT, "1.5"), (XsdType.DOUBLE, "x"),
        (XsdType.BOOLEAN, "yes"), (XsdType.BOOLEAN, ""),
    ])
    def test_lexical_form_must_be_valid_for_its_type(self, xsd_type, lexical):
        sig = MethodSignature("m", (), xsd_type)
        with pytest.raises(InvalidResultLexical,
                           match=f"not a valid {xsd_type.xsd_name} lexical value"):
            coerce_result(sig, TypedValue(xsd_type, lexical, None))


class TestDescriptorInvariants:
    def test_endpoint_must_start_with_slash(self):
        with pytest.raises(ValueError):
            ServiceDescriptor(
                serviceName="S",
                namespaceUri="urn:x",
                endpointPath="noslash",
                responseNamespaceUri="urn:x",
                methods=(MethodSignature("m", (), XsdType.STRING),),
            )

    def test_methods_required(self):
        with pytest.raises(ValueError):
            ServiceDescriptor(
                serviceName="S",
                namespaceUri="urn:x",
                endpointPath="/s",
                responseNamespaceUri="urn:x",
                methods=(),
            )

    def test_duplicate_method_names_rejected(self):
        m = MethodSignature("m", (), XsdType.STRING)
        with pytest.raises(ValueError):
            ServiceDescriptor(
                serviceName="S",
                namespaceUri="urn:x",
                endpointPath="/s",
                responseNamespaceUri="urn:x",
                methods=(m, m),
            )

    @pytest.mark.parametrize("field", ["namespaceUri", "responseNamespaceUri"])
    # the parser splits names at "}" and refuses a namespace holding it
    @pytest.mark.parametrize("uri", [XML_NS, XMLNS_NS, "urn:bad\x01", "urn:bad\ufffe", "urn:a}b"],
                             ids=["xml", "xmlns", "control", "noncharacter", "brace"])
    def test_namespace_xml_cannot_carry_rejected(self, field, uri):
        fields = dict(serviceName="S", namespaceUri="urn:x", endpointPath="/s",
                      responseNamespaceUri="urn:x",
                      methods=(MethodSignature("m", (), XsdType.STRING),))
        fields[field] = uri
        with pytest.raises(ValueError, match="namespace XML cannot carry"):
            ServiceDescriptor(**fields)

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError):
            MethodSignature(
                "m",
                (ParameterSpec("a", XsdType.INT), ParameterSpec("a", XsdType.INT)),
                XsdType.STRING,
            )


class TestFingerprint:
    def test_same_descriptor_same_fingerprint(self):
        assert descriptor_fingerprint(notes_descriptor()) == descriptor_fingerprint(
            notes_descriptor()
        )

    def test_round_trip_through_dict_is_stable(self):
        desc = notes_descriptor(True)
        again = descriptor_from_dict(descriptor_to_dict(desc))
        assert again == desc
        assert descriptor_fingerprint(again) == descriptor_fingerprint(desc)

    def test_every_single_field_mutation_changes_fingerprint(self):
        base = notes_descriptor()
        fp = descriptor_fingerprint(base)
        mutations = [
            dataclasses.replace(base, serviceName="Other"),
            dataclasses.replace(base, namespaceUri="urn:other"),
            dataclasses.replace(base, endpointPath="/Other.jws"),
            dataclasses.replace(base, responseNamespaceUri="urn:other"),
            dataclasses.replace(base, securityEnabled=True),
            dataclasses.replace(base, exclusiveExecution=True),
        ]
        method = base.methods[0]
        mutations.append(
            dataclasses.replace(base, methods=(dataclasses.replace(method, name="x"),))
        )
        mutations.append(
            dataclasses.replace(
                base, methods=(dataclasses.replace(method, returnType=XsdType.INT),)
            )
        )
        params = list(method.params)
        params[0] = ParameterSpec(params[0].name, XsdType.INT)
        mutations.append(
            dataclasses.replace(
                base, methods=(dataclasses.replace(method, params=tuple(params)),)
            )
        )
        fingerprints = {descriptor_fingerprint(m) for m in mutations}
        assert fp not in fingerprints
        assert len(fingerprints) == len(mutations)
