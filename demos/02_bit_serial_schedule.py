#!/usr/bin/env python3
"""Walk the L-clock shift-accumulate schedule one cycle at a time.

Each cycle n gathers bit n of every sample in the delay line into group
addresses, looks up each group's partial product, sums them, shifts the
sum left by n and adds it to the accumulator. The final cycle (the sign
bits) is subtracted instead, which is all two's complement needs. After
L cycles the accumulator holds the exact inner product.
"""

from dafir import (
    CoefficientSet,
    DaFilter,
    FixedFormat,
    da_inner_product,
    direct_fir,
    partition_taps,
)


def main() -> None:
    fmt = FixedFormat(8)
    coeffs = CoefficientSet.from_integers([3, -5, 7, 2], fmt)
    plan = partition_taps(4, 2)
    window = [6, -3, -8, 5]  # newest sample first
    input_width = 4

    value, trace = da_inner_product(window, coeffs, plan, input_width=input_width)

    print(f"coefficients: {list(coeffs.values)}")
    print(f"delay line:   {window} (4-bit samples, newest first)\n")
    print("cycle  addresses  partials      tree  op          accumulator")
    for r in trace:
        op = f"acc -= {r.tree_sum} << {r.shift}" if r.subtract else f"acc += {r.tree_sum} << {r.shift}"
        print(
            f"{r.cycle:5d}  {str(list(r.addresses)):9s}  "
            f"{str(list(r.partials)):12s}  {r.tree_sum:4d}  {op:10s}  {r.acc_after:6d}"
        )

    direct = sum(a * x for a, x in zip(coeffs.values, window))
    print(f"\nbit-serial result: {value}")
    print(f"direct dot product: {direct}")
    assert value == direct

    print("\nthe same machinery filters a stream (delay line shifts per sample):")
    samples = [1, -2, 3, -4, 5]
    outputs = DaFilter(coeffs, plan, input_width=8).process(samples)
    print(f"  samples: {samples}")
    print(f"  outputs: {outputs}")
    print(f"  oracle:  {direct_fir(samples, coeffs)}")


if __name__ == "__main__":
    main()
