// SNR conventions. This block is their reference; README's "Fidelity
// against the paper" lists the table values they move.
//
//   sigma^2 = signalPower / 10^(snrDb/10)
//
// For the 1+D ISI channel with BPSK (+-1) inputs the transmitted level is
// a[n]+a[n-1] in {-2,0,+2} with E[s^2] = 2. For the MIMO system the received
// signal power per complex dimension is normalised to 1 (E|h|^2 = 1 Rayleigh,
// |s|=1 BPSK) and noise is split evenly across real/imaginary parts.
#pragma once

namespace mimostat::comm {

/// Linear power ratio for an SNR in dB.
[[nodiscard]] double snrDbToLinear(double snrDb);

/// Noise standard deviation so that signalPower / sigma^2 equals the SNR.
[[nodiscard]] double noiseSigma(double snrDb, double signalPower);

/// Per-real-dimension noise sigma for a complex-baseband system with unit
/// received signal power: sigma_dim = sqrt(N0/2), N0 = 10^(-snrDb/10).
[[nodiscard]] double noiseSigmaPerDimension(double snrDb);

}  // namespace mimostat::comm
