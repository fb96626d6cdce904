from smpds import validate
from smpds.bench import GenParams, generate


def test_generator_deterministic():
    a = generate(GenParams(seed=42))
    b = generate(GenParams(seed=42))
    assert a.smpds.rules == b.smpds.rules
    assert a.initial == b.initial
    assert a.target == b.target
    c = generate(GenParams(seed=43))
    assert c.smpds.rules != a.smpds.rules


def test_generator_well_formed():
    for seed in range(20):
        params = GenParams(num_states=4, num_symbols=4, num_rules=8,
                           num_smrules=3, seed=seed)
        inst = generate(params)
        assert validate(inst.smpds) == []
        assert len(inst.smpds.delta) == params.num_rules
        assert len(inst.smpds.delta_c) == params.num_smrules
        # modifying rules only reference plain rules, so none removes itself
        for rid in inst.smpds.delta_c:
            r = inst.smpds.rules[rid]
            assert r.removed in inst.smpds.delta
            assert r.added in inst.smpds.delta
        # the initial phase enables everything
        assert set(inst.initial.phase.members) == set(inst.smpds.rules)
        assert len(inst.initial.stack) == 2

