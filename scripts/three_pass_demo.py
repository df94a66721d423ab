#!/usr/bin/env python3
"""Run the homomorphic three-pass protocol against yourself over loopback TCP.

The responder starts with no key material at all; it learns the modulus
from the initiator's announce frame, exponentiates blindly, and still
recovers the message at the end.
"""

import argparse
import random
import threading

import p3p
from p3p import net, numtheory as nt
from p3p.threepass import PaillierInitiatorSession


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bits", type=int, default=256, help="modulus size")
    parser.add_argument("--message", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    # The responder gets a seed of its own: it draws in another thread.
    seeded = args.seed is not None
    rng = random.Random(args.seed) if seeded else nt.system_random()
    print(f"generating a {args.bits}-bit key ...")
    sk = p3p.keygen(args.bits // 2, rng=rng)
    message = args.message if args.message is not None else rng.randrange(sk.public.n)
    print(f"message  = {message:#x}")

    listening = threading.Event()
    holder = {}

    def on_listening(port):
        holder["port"] = port
        listening.set()

    server = threading.Thread(
        target=lambda: holder.update(
            outcomes=net.serve_three_pass(
                port=0,
                seed=args.seed + 1 if seeded else None,
                on_listening=on_listening,
            )
        )
    )
    server.start()
    listening.wait()

    session = PaillierInitiatorSession(sk, message)
    outcome = net.send_over_tcp("127.0.0.1", holder["port"], session, rng=rng)
    server.join()

    print(f"pass1    = {outcome.pass1:#x}")
    print(f"pass2    = {outcome.pass2:#x}")
    print(f"pass3    = {outcome.pass3:#x}")
    recovered = holder["outcomes"][0].recovered
    print(f"recovered = {recovered:#x}")
    print("match!" if recovered == message else "MISMATCH")


if __name__ == "__main__":
    main()
