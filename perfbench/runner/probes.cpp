// Per-layer probes for the traced run: time calls into each module's
// public functions from here, on the workload's own inputs where it has
// them. Sizes and configs come from ott::EcosystemConfig{} and
// widevine::DrmServiceConfig{} (through fleet.cpp), so a probe measures
// what the program runs.
#include <memory>

#include "common.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/modes.hpp"
#include "crypto/rsa.hpp"
#include "fleet.hpp"
#include "loadgen.hpp"
#include "media/cenc.hpp"
#include "ott/catalog.hpp"
#include "ott/ecosystem.hpp"
#include "support/rng.hpp"
#include "widevine/key_ladder.hpp"
#include "widevine/keybox.hpp"

namespace perfbench {

using namespace wideleak;

namespace {

/// Closed-loop length of each license-path probe.
constexpr double kServiceProbeSeconds = 1.0;

/// Keeps probe results observable so the timed calls cannot be elided.
volatile std::size_t g_sink = 0;

/// Median over `batches` of the mean per-call time of `per_batch` calls to
/// fn(i), in microseconds. fn returns a size folded into the sink.
template <typename Fn>
double median_call_us(std::size_t batches, std::size_t per_batch, Fn&& fn) {
  std::vector<double> per_call;
  std::size_t sink = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) sink += fn(b * per_batch + i);
    per_call.push_back(seconds_between(start, Clock::now()) * 1e6 /
                       static_cast<double>(per_batch));
  }
  g_sink = g_sink + sink;
  return median(std::move(per_call));
}

/// Mean milliseconds per RSA key generation at `bits`; keeps the last key.
double keygen_ms(Rng& rng, std::size_t bits, int count, crypto::RsaKeyPair& last) {
  const auto start = Clock::now();
  for (int i = 0; i < count; ++i) last = crypto::rsa_generate(rng, bits);
  return seconds_between(start, Clock::now()) * 1e3 / count;
}

double loop_median_us(const LicenseFleet& fleet, std::size_t clients, const LicenseCall& call,
                      Result& result) {
  LoopOutcome outcome = run_closed_loop(fleet, {clients, kServiceProbeSeconds, false, {}}, call);
  if (outcome.failed + outcome.warm_failed > 0 || outcome.latency_us.empty()) {
    result.fail("license probe loop: responses failed their check");
    return 0.0;
  }
  return nearest_rank(outcome.latency_us, 50);
}

void add_crypto_probes(const LicenseFleet& fleet, Rng& rng, Result& result) {
  const ott::EcosystemConfig ecosystem;
  result.note("probe_tls_key_bits", static_cast<double>(ecosystem.tls_key_bits));
  result.note("probe_device_rsa_bits", static_cast<double>(ecosystem.device_rsa_bits));

  crypto::RsaKeyPair key;
  result.add("crypto.rsa_keygen_512_ms", keygen_ms(rng, ecosystem.tls_key_bits, 6, key), "ms");
  result.add("crypto.rsa_keygen_1024_ms", keygen_ms(rng, ecosystem.device_rsa_bits, 3, key),
             "ms");
  const Bytes& message = fleet.bodies.front();

  const crypto::BigInt base = crypto::BigInt::random_below(rng, key.pub.n);
  result.add("crypto.modpow_1024_us", median_call_us(5, 4, [&](std::size_t) {
               return crypto::BigInt::mod_pow(base, key.d, key.pub.n).bit_length();
             }),
             "us");
  result.add("crypto.rsa_pss_sign_1024_us", median_call_us(5, 4, [&](std::size_t) {
               return crypto::rsa_pss_sign(key, rng, message).size();
             }),
             "us");
  std::vector<Bytes> ciphertexts;
  const Bytes session_key = rng.next_bytes(16);
  for (int i = 0; i < 20; ++i) {
    ciphertexts.push_back(crypto::rsa_oaep_encrypt(key.pub, rng, session_key));
  }
  result.add("crypto.rsa_oaep_decrypt_1024_us", median_call_us(5, 4, [&](std::size_t i) {
               return crypto::rsa_oaep_decrypt(key, ciphertexts[i]).size();
             }),
             "us");
  const Bytes signature = crypto::rsa_pss_sign(key, rng, message);
  result.add("crypto.rsa_pss_verify_1024_us", median_call_us(11, 20, [&](std::size_t) {
               return static_cast<std::size_t>(crypto::rsa_pss_verify(key.pub, message, signature));
             }),
             "us");
  result.add("crypto.rsa_oaep_encrypt_1024_us", median_call_us(11, 20, [&](std::size_t) {
               return crypto::rsa_oaep_encrypt(key.pub, rng, session_key).size();
             }),
             "us");
  const Bytes serialized = key.pub.serialize();
  result.add("crypto.rsa_pubkey_deserialize_us", median_call_us(11, 100, [&](std::size_t) {
               return crypto::RsaPublicKey::deserialize(serialized).modulus_bytes();
             }),
             "us");

  // The symmetric request path, over the fleet's own request bodies.
  const std::size_t n = fleet.size();
  const SecretBytes root(rng.next_bytes(16));
  const widevine::SessionKeys keys =
      widevine::derive_session_keys(root, fleet.bodies[0], fleet.bodies[0]);
  std::vector<Bytes> tags;
  for (std::size_t i = 0; i < n; ++i) {
    tags.push_back(crypto::hmac_sha256(keys.mac_key_client, fleet.bodies[i]));
  }
  result.add("crypto.hmac_sha256_verify_us", median_call_us(11, 1000, [&](std::size_t i) {
               return static_cast<std::size_t>(crypto::hmac_sha256_verify(
                   keys.mac_key_client, fleet.bodies[i % n], tags[i % n]));
             }),
             "us");
  const crypto::Aes enc(keys.enc_key);
  const Bytes iv = rng.next_bytes(16);
  const auto& content_key = fleet.content_keys.front().front();
  result.add("crypto.aes_cbc_wrap_us", median_call_us(11, 1000, [&](std::size_t) {
               return crypto::aes_cbc_encrypt_nopad(enc, iv, content_key.reveal()).size();
             }),
             "us");
  result.add("widevine.derive_session_keys_us", median_call_us(11, 1000, [&](std::size_t i) {
               return widevine::derive_session_keys(root, fleet.bodies[i % n], fleet.bodies[i % n])
                   .enc_key.size();
             }),
             "us");
  result.add("widevine.request_body_us", median_call_us(11, 1000, [&](std::size_t i) {
               return fleet.requests[i % n].body().size();
             }),
             "us");
}

void add_service_probes(const LicenseFleet& fleet, std::optional<double> service_handle_us,
                        Result& result) {
  if (!service_handle_us) {
    const std::unique_ptr<widevine::DrmService> service = make_service(fleet);
    service_handle_us = loop_median_us(
        fleet, 2,
        [&](std::size_t i, std::uint64_t tick) {
          return service->handle_license(fleet.tenant_of[i], fleet.requests[i], fleet.policy,
                                         tick);
        },
        result);
  }
  const LicenseCall direct = [&](std::size_t i, std::uint64_t) {
    return fleet.license->handle(fleet.requests[i], fleet.policy);
  };
  result.add("widevine.drm_service.handle_us", *service_handle_us, "us");
  result.add("widevine.license_server.handle_us", loop_median_us(fleet, 2, direct, result), "us");
  result.add("widevine.license_server.handle_1t_us", loop_median_us(fleet, 1, direct, result),
             "us");
}

void add_ecosystem_probes(std::uint64_t seed, Result& result) {
  // Provisioning at the ecosystem's Device RSA size: each grant is a keygen.
  const ott::EcosystemConfig defaults;
  auto roots = std::make_shared<widevine::DeviceRootDatabase>();
  widevine::ProvisioningServer server(roots, input_seed(seed, "probe-provisioning"),
                                      defaults.device_rsa_bits);
  Rng rng(input_seed(seed, "probe-provisioning-clients"));
  constexpr int kProvisionings = 3;
  double provisioning_s = 0.0;
  for (int i = 0; i < kProvisionings; ++i) {
    const widevine::Keybox keybox = widevine::make_factory_keybox(
        "pb-probe-" + std::to_string(i), input_seed(seed, "probe-keybox"));
    roots->register_device(keybox, widevine::SecurityLevel::L1);
    widevine::ProvisioningRequest request;
    request.client.stable_id = keybox.stable_id();
    request.client.device_model = "perfbench-device";
    request.client.level = widevine::SecurityLevel::L1;
    request.nonce = rng.next_bytes(16);
    const Bytes body = request.body();
    request.signature = crypto::hmac_sha256(
        widevine::derive_session_keys(keybox.device_key(), body, body).mac_key_client, body);
    const auto start = Clock::now();
    const widevine::ProvisioningResponse response = server.handle(request);
    provisioning_s += seconds_between(start, Clock::now());
    if (!response.granted) result.fail("provisioning probe refused: " + response.deny_reason);
  }
  result.add("widevine.provisioning.handle_ms", provisioning_s * 1e3 / kProvisionings, "ms");

  // A cell's world: the ecosystem plus one installed app.
  ott::EcosystemConfig config;
  config.seed = input_seed(seed, "probe-ecosystem");
  const ott::OttAppProfile app = ott::study_catalog().front();
  std::unique_ptr<ott::StreamingEcosystem> ecosystem;
  std::vector<double> setup_ms;
  for (int i = 0; i < 3; ++i) {
    ecosystem.reset();
    const auto start = Clock::now();
    ecosystem = std::make_unique<ott::StreamingEcosystem>(config);
    ecosystem->install_app(app);
    setup_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
  }
  result.add("ott.ecosystem_setup_ms", median(std::move(setup_ms)), "ms");

  // CENC over that app's packaged title.
  const media::PackagedTitle& title = ecosystem->title_for(app.name);
  std::vector<std::pair<media::PackagedTrack, Bytes>> tracks;
  for (const auto& [path, file] : title.files) {
    media::PackagedTrack track = media::PackagedTrack::from_file(file);
    if (!track.encrypted) continue;
    const media::ContentKey* key = title.key_for(track.key_id);
    if (key) tracks.emplace_back(std::move(track), key->key);
  }
  if (tracks.empty()) {
    result.fail("cenc probe: the title has no encrypted track");
    result.add("media.cenc_decrypt_track_us", 0.0, "us");
    return;
  }
  result.add("media.cenc_decrypt_track_us", median_call_us(11, 20, [&](std::size_t i) {
               const auto& [track, key] = tracks[i % tracks.size()];
               return media::cenc_decrypt_track(track, key).size();
             }),
             "us");
}

}  // namespace

void add_probe_metrics(const Options& options, const LicenseFleet* fleet,
                       std::optional<double> service_handle_us, Result& result) {
  LicenseFleet keybox_fleet;
  if (!fleet) {
    keybox_fleet = build_keybox_fleet(options.seed);
    fleet = &keybox_fleet;
  }
  Rng rng(input_seed(options.seed, "probes"));
  add_crypto_probes(*fleet, rng, result);
  add_service_probes(*fleet, service_handle_us, result);
  add_ecosystem_probes(options.seed, result);
}

}  // namespace perfbench
