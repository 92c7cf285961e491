"""Classical wave-model Monte Carlo of a heralded Leggett-Garg interferometry test."""
