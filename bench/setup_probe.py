"""Time one set-up of a benchmark workload in a fresh interpreter.

Set-up is importing the package and loading the workload's input, up to the
first timed call: the config document for ``verify_stock`` and ``train_desk``,
the command line for ``gradcheck_fd``. Prints the seconds it took.

    python3 bench/setup_probe.py train_desk path/to/train.json
    python3 bench/setup_probe.py gradcheck_fd "gradcheck --trials 20 --seed 0"
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from ntxbound import cli, serialize

    workload, arg = sys.argv[1], sys.argv[2]
    if workload == "verify_stock":
        cli.parse_verify_config(serialize.load_json(arg))
    elif workload == "train_desk":
        cli.parse_train_config(serialize.load_json(arg))
    else:
        cli.build_parser().parse_args(arg.split())
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
