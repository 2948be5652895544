#include "fleet.hpp"

#include <exception>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/modes.hpp"
#include "ott/ecosystem.hpp"
#include "support/rng.hpp"
#include "widevine/key_ladder.hpp"
#include "widevine/keybox.hpp"

namespace perfbench {

using namespace wideleak;

namespace {

/// The CDM's nonce length (OemCrypto::generate_nonce).
constexpr std::size_t kNonceBytes = 16;

/// Servers, policy and per-tenant content keys. Returns each tenant's key
/// ids.
std::vector<std::vector<media::KeyId>> init_fleet(LicenseFleet& fleet, std::uint64_t seed,
                                                  std::size_t tenants, Rng& rng) {
  fleet.seed = seed;
  fleet.tenants = tenants;
  fleet.roots = std::make_shared<widevine::DeviceRootDatabase>();
  fleet.license =
      std::make_shared<widevine::LicenseServer>(fleet.roots, input_seed(seed, "license-server"));
  fleet.provisioning = std::make_shared<widevine::ProvisioningServer>(
      fleet.roots, input_seed(seed, "provisioning-server"),
      ott::EcosystemConfig{}.device_rsa_bits);
  fleet.policy = widevine::permissive_revocation_policy();

  std::vector<std::vector<media::KeyId>> kids(tenants);
  fleet.content_keys.resize(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    for (std::size_t k = 0; k < kKeysPerTenant; ++k) {
      media::KeyId kid = rng.next_bytes(16);
      SecretBytes key(rng.next_bytes(16));
      fleet.license->add_generic_key(kid, key);
      fleet.content_keys[t].push_back(std::move(key));
      kids[t].push_back(std::move(kid));
    }
  }
  return kids;
}

widevine::ClientIdentity identity_of(const widevine::Keybox& keybox) {
  widevine::ClientIdentity client;
  client.stable_id = keybox.stable_id();
  client.device_model = "perfbench-device";
  client.cdm_version = widevine::kCurrentCdm;
  client.level = widevine::SecurityLevel::L1;
  return client;
}

widevine::LicenseRequest unsigned_request(const widevine::Keybox& keybox,
                                          const std::vector<media::KeyId>& kids, Rng& rng) {
  widevine::LicenseRequest request;
  request.client = identity_of(keybox);
  request.nonce = rng.next_bytes(kNonceBytes);
  request.key_ids = kids;
  request.scheme = widevine::SignatureScheme::KeyboxCmac;
  return request;
}

void push_request(LicenseFleet& fleet, widevine::LicenseRequest request, Bytes body,
                  std::size_t tenant) {
  fleet.requests.push_back(std::move(request));
  fleet.bodies.push_back(std::move(body));
  fleet.tenant_of.push_back(tenant);
}

}  // namespace

std::uint64_t input_seed(std::uint64_t seed, const std::string& label) {
  return derive_stream_seed(seed, "perfbench/" + label);
}

LicenseFleet build_keybox_fleet(std::uint64_t seed) {
  LicenseFleet fleet;
  Rng rng(input_seed(seed, "fleet"));
  const auto kids = init_fleet(fleet, seed, kKeyboxTenants, rng);
  const std::uint64_t provisioner = input_seed(seed, "keybox");
  for (std::size_t t = 0; t < kKeyboxTenants; ++t) {
    for (std::size_t d = 0; d < kKeyboxDevicesPerTenant; ++d) {
      const widevine::Keybox keybox = widevine::make_factory_keybox(
          "pb-t" + std::to_string(t) + "-d" + std::to_string(d), provisioner);
      fleet.roots->register_device(keybox, widevine::SecurityLevel::L1);
      widevine::LicenseRequest request =
          unsigned_request(keybox, kids[t], rng);
      Bytes body = request.body();
      widevine::SessionKeys keys =
          widevine::derive_session_keys(keybox.device_key(), body, body);
      request.signature = crypto::hmac_sha256(keys.mac_key_client, body);
      push_request(fleet, std::move(request), std::move(body), t);
      fleet.session_keys.push_back(std::move(keys));
    }
  }
  return fleet;
}

std::unique_ptr<widevine::DrmService> make_service(const LicenseFleet& fleet) {
  widevine::DrmServiceConfig config;
  config.seed = input_seed(fleet.seed, "drm-service");
  auto service =
      std::make_unique<widevine::DrmService>(fleet.license, fleet.provisioning, config);
  for (std::size_t t = 0; t < fleet.tenants; ++t) {
    service->register_app("perfbench-tenant-" + std::to_string(t));
  }
  return service;
}

bool verify_response(const LicenseFleet& fleet, std::size_t index,
                     const widevine::LicenseResponse& response) {
  const widevine::LicenseRequest& request = fleet.requests[index];
  if (!response.granted || response.keys.size() != request.key_ids.size()) return false;
  for (std::size_t k = 0; k < response.keys.size(); ++k) {
    if (response.keys[k].kid != request.key_ids[k]) return false;
  }
  try {
    const widevine::SessionKeys& keys = fleet.session_keys[index];
    if (!crypto::hmac_sha256_verify(keys.mac_key_server, response.body(), response.mac)) {
      return false;
    }
    const crypto::Aes enc(keys.enc_key);
    const auto& expected = fleet.content_keys[fleet.tenant_of[index]];
    for (std::size_t k = 0; k < response.keys.size(); ++k) {
      const SecretBytes key(crypto::aes_cbc_decrypt_nopad(enc, response.keys[k].iv,
                                                          response.keys[k].wrapped_key));
      if (!(key == expected[k])) return false;
    }
  } catch (const std::exception&) {
    return false;  // a malformed wrap is a failed verification, not a crash
  }
  return true;
}

}  // namespace perfbench
