"""Partitioned copy detection — the paper's Section VIII, runnable.

The conclusions sketch a Hadoop-style parallelisation: distribute index
entries across workers, accumulate partial pair scores, merge.  Because
INDEX's accumulation is a plain sum, the merged verdicts are identical to
the sequential scan for any partition count — this example demonstrates
that.

Run:  python examples/parallel_detection.py
"""

from repro.core import CopyParams, InvertedIndex, detect_index
from repro.eval import render_table
from repro.fusion import vote_probabilities
from repro.parallel import detect_index_parallel
from repro.synth import stock_1day


def main() -> None:
    world = stock_1day(scale=0.03)
    dataset = world.dataset
    params = CopyParams()
    probabilities = vote_probabilities(dataset)
    accuracies = [0.8] * dataset.n_sources
    index = InvertedIndex.build(dataset, probabilities, accuracies, params)

    # Merge equivalence across partition counts and executors.
    sequential = detect_index(
        dataset, probabilities, accuracies, params, index=index
    )
    rows = []
    for n_partitions in (1, 2, 4, 8):
        parallel = detect_index_parallel(
            dataset,
            probabilities,
            accuracies,
            params,
            n_partitions=n_partitions,
            executor="serial",
            index=index,
        )
        rows.append(
            [
                n_partitions,
                len(parallel.decisions),
                len(parallel.copying_pairs()),
                parallel.copying_pairs() == sequential.copying_pairs(),
            ]
        )
    threaded = detect_index_parallel(
        dataset, probabilities, accuracies, params,
        n_partitions=4, executor="threads", index=index,
    )
    rows.append(
        [
            "4 (threads)",
            len(threaded.decisions),
            len(threaded.copying_pairs()),
            threaded.copying_pairs() == sequential.copying_pairs(),
        ]
    )
    print(render_table(
        "Partitioned INDEX vs sequential",
        ["partitions", "pairs decided", "copying", "verdicts identical"],
        rows,
    ))


if __name__ == "__main__":
    main()
